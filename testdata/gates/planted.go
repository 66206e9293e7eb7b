// Package planted breaks every source gate once, so gates_test.go can show
// each gate fails; the analyzers' planted cases are their golden packages
// beside it. The decoys in comments and strings must not count:
// map[string]int, http.StatusNotFound, report.BuildJSON(res),
// "repro/internal/chaos", sha256.Sum256(spec), Agg *netlist.Net,
// os.Remove(path), Options{Vdd: 1.1}, planted.Unused(), //snavet:ordered in
// a comment.
package planted

import (
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"os"

	"repro/internal/chaos"
	"repro/internal/netlist"
	"repro/internal/report"
)

var byName map[string]int

const decoy = "map[string]bool http.StatusConflict report.BuildDelayJSON(res) sha256.New() []*netlist.Conn filepath.Glob(dir) opts.Vdd = 0.9 Unused() //snavet:ctxloop in a string"

// A waiver in a file no analyzer reads, which would waive nothing:
//snavet:nanguard planted outside the analyzed files

// prepare reaches for an injector from product code.
var prepare = chaos.RuntimeFaults{Panic: []string{"*"}}.Hook()

func handleGhost(w http.ResponseWriter) {
	w.WriteHeader(http.StatusNotFound)
}

func buildTree() *report.ResultJSON { return report.BuildJSON(nil) }

// storedJob holds a stored result the way a job snapshot does.
type storedJob struct {
	ID     string
	Result json.RawMessage
}

func marshalJob(j storedJob) ([]byte, error) { return json.Marshal(j) }

// marshalHead is a decoy: the result is cleared before the marshal, the
// way the splicing encoders leave it out.
func marshalHead(j storedJob) ([]byte, error) {
	j.Result = nil
	return json.Marshal(&j)
}

// saveRound keeps round state in a file of its own, beside the journals.
func saveRound(path string, state []byte) error { return os.WriteFile(path, state, 0o644) }

// specDigest hashes a spec a second time, outside the one key function.
func specDigest(spec []byte) [sha256.Size]byte { return sha256.Sum256(spec) }

// Design stores a table whose records hold a name the collector must
// trace; the count beside it is not a table.
type Design struct {
	nets arena[netRec]
	n    int
}

// root is the one use of Design.
var root Design

type arena[T any] struct{ chunks [][]T }

type netRec struct {
	name string
	id   int32
}

// engine keeps a pointer into the netlist where an ID would do; the
// design itself and a func field's signature are not such pointers.
type engine struct {
	design    *netlist.Design
	receivers []*netlist.Conn
	onLevel   func(*netlist.Levelization)
}

// Options has a field nobody sets (Vdd) and one only its default sets
// (Budget); Mode is set by a literal and Workers by an assignment.
type Options struct {
	Mode    int
	Workers int
	Budget  int
	Vdd     float64
}

func (o *Options) fill() {
	if o.Budget <= 0 {
		o.Budget = 16
	}
}

var serial = Options{Mode: 1}

func parallel(o Options) Options {
	o.Workers = 2
	return o
}

// Unused is an export nothing calls.
func Unused() int { return 0 }

// Severity is a decoy: an interface of the module (lint.Rule) names it.
func (o Options) Severity() int { return o.Mode }
