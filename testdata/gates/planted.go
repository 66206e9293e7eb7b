// Package planted breaks every source gate once, so gates_test.go can show
// each gate fails. The decoys in comments and strings must not count:
// map[string]int, http.StatusNotFound.
package planted

import "net/http"

var byName map[string]int

const decoy = "map[string]bool http.StatusConflict"

func handleGhost(w http.ResponseWriter) {
	w.WriteHeader(http.StatusNotFound)
}
