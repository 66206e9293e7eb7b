package analysis

import (
	"go/ast"
	"testing"
)

// TestAckOrderSeesTheRealHandlers is the analyzer's non-vacuity check: a
// rule that matches no production function passes every tree. Run over
// the real internal/server, it must find a journal mutation and a 2xx
// acknowledgement in each handler that acknowledges durable state.
func TestAckOrderSeesTheRealHandlers(t *testing.T) {
	// The golden-package tests in this binary switch the process to GOPATH
	// mode for their source importer; the go list below needs the module.
	t.Setenv("GO111MODULE", "on")
	paired := map[string]bool{}
	probe := &Analyzer{Name: "ackorderprobe", Run: func(pass *Pass) error {
		ackOrderPairs(pass, func(fd *ast.FuncDecl, mutates, acks []*ast.CallExpr) {
			if len(acks) > 0 {
				paired[fd.Name.Name] = true
			}
		})
		return nil
	}}
	if _, err := LoadAndRun([]string{"repro/internal/server"}, []*Analyzer{probe}); err != nil {
		t.Fatal(err)
	}
	for _, handler := range []string{"handleCreate", "handleDelete", "handleSubmitJob", "handleCancelJob"} {
		if !paired[handler] {
			t.Errorf("ackorder finds no mutate-and-acknowledge pair in %s; it cannot catch an early ack there (found pairs in %v)", handler, paired)
		}
	}
}
