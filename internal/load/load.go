// Package load is the one path from design sources to a bound design:
// parse the netlist, parasitics and input timing, lint the combined
// database, bind. Every front end (sna, noisebench's capacity ladder, the
// server's design cache) goes through it, so they agree on
// what is parsed how, in which order errors surface, and that nothing
// binds past a lint error.
//
// The three databases are independent until lint, so they are parsed
// concurrently, each by one streaming pass on its own goroutine. The
// Verilog reader is the longest of those passes: it is the parse phase's
// serial long pole. The outcome is the serial one: when several sources
// are bad, the error reported is the first in the order library, netlist,
// parasitics, timing.
package load

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"repro/internal/bind"
	"repro/internal/liberty"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/vlog"
)

// Source opens one input database for reading. A nil Source is an absent
// input. It is opened only when its parse starts, on the parsing
// goroutine, so an unreadable file ranks with that source's parse errors.
type Source func() (io.ReadCloser, error)

// File is the Source of a file path; the empty path is absent.
func File(path string) Source {
	if path == "" {
		return nil
	}
	return func() (io.ReadCloser, error) { return os.Open(path) }
}

// Text is the Source of in-memory text; the empty text is absent.
func Text(text string) Source {
	if text == "" {
		return nil
	}
	return func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(text)), nil }
}

// Files is the Sources of the CLIs' four path flags; empty paths are
// absent, and a netlist path ending in ".v" is structural Verilog.
func Files(netlist, liberty, spef, timing string) Sources {
	return Sources{
		Netlist: File(netlist), Verilog: strings.HasSuffix(netlist, ".v"),
		Liberty: File(liberty), SPEF: File(spef), Timing: File(timing),
	}
}

// Sources names a design's inputs. Only Netlist is required.
type Sources struct {
	Netlist Source
	// Verilog marks Netlist as structural Verilog (resolved against the
	// library) instead of the native .net format.
	Verilog bool
	Liberty Source // absent: the built-in generic library
	SPEF    Source // absent: every net gets the lumped model
	Timing  Source // absent: Inputs is used as given
	// Inputs is input timing the caller has parsed already (the server
	// parses it per session, outside the shared design). Timing, when
	// present, replaces it.
	Inputs map[string]*sta.Timing
}

// Design is a loaded design: the parsed databases and lint's verdict on
// them.
type Design struct {
	lint.Input
	Lint *lint.Result
}

// Load parses the sources concurrently and lints the result. The error
// is a load failure (unreadable or unparsable input); lint findings,
// errors included, are in the returned Design for the caller to render.
func Load(src Sources, cfg lint.Config) (*Design, error) {
	if src.Netlist == nil {
		return nil, errors.New("load: a netlist is required")
	}
	d := &Design{Input: lint.Input{Lib: liberty.Generic(), Inputs: src.Inputs}}
	var (
		wg               sync.WaitGroup
		spefErr, timeErr error
	)
	background := func(src Source, errp *error, fn func(io.Reader) error) {
		if src == nil {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			*errp = parse(src, fn)
		}()
	}
	background(src.SPEF, &spefErr, func(r io.Reader) (err error) { d.Paras, err = spef.Parse(r); return })
	background(src.Timing, &timeErr, func(r io.Reader) (err error) { d.Inputs, err = sta.ParseInputTiming(r); return })
	// The netlist needs the library (Verilog pin directions), so the two
	// run back to back on this goroutine.
	netErr := parse(src.Liberty, func(r io.Reader) (err error) { d.Lib, err = liberty.Parse(r); return })
	if netErr == nil {
		netErr = parse(src.Netlist, func(r io.Reader) (err error) {
			if src.Verilog {
				d.Design, err = vlog.Parse(r, d.Lib)
			} else {
				d.Design, err = netlist.Parse(r)
			}
			return
		})
	}
	wg.Wait()
	for _, err := range []error{netErr, spefErr, timeErr} {
		if err != nil {
			return nil, err
		}
	}
	d.Lint = lint.Run(&d.Input, cfg)
	return d, nil
}

// parse opens a source and runs a reader-based parser over it; an absent
// source parses to nothing.
func parse(src Source, fn func(io.Reader) error) error {
	if src == nil {
		return nil
	}
	r, err := src()
	if err != nil {
		return err
	}
	defer r.Close()
	return fn(r)
}

// Bind composes the loaded databases into the analyzable design. It
// refuses a design lint found errors in: noise results computed from a
// broken database are worse than no results.
func (d *Design) Bind() (*bind.Design, error) {
	if d.Lint.HasErrors() {
		return nil, fmt.Errorf("load: design rejected by lint: %d error(s)", d.Lint.Errors())
	}
	return bind.New(d.Design, d.Lib, d.Paras)
}
