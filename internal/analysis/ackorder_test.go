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
	m := loadServer(t)
	p := m.Pkgs[0]
	paired := map[string]bool{}
	probe := &Analyzer{Name: "ackorderprobe", Run: func(pass *Pass) {
		ackOrderPairs(pass, func(fd *ast.FuncDecl, _, acks []*ast.CallExpr) {
			paired[fd.Name.Name] = paired[fd.Name.Name] || len(acks) > 0
		})
	}}
	Run(m.Fset, p.Files, p.Types, p.Info, []*Analyzer{probe})
	for _, handler := range []string{"handleCreate", "handleDelete", "handleSubmitJob", "handleCancelJob"} {
		if !paired[handler] {
			t.Errorf("ackorder finds no mutate-and-acknowledge pair in %s; it cannot catch an early ack there (found pairs in %v)", handler, paired)
		}
	}
}
