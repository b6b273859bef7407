package rpc

import (
	"reflect"
	"testing"
)

// TestMethodTableCoversBackend: every typed Backend method (those it
// adds to Handler) has exactly one descriptor, and no descriptor names a method
// Backend lacks, so an edge driven by the table serves the whole
// surface. Wire names and HTTP patterns are unique.
func TestMethodTableCoversBackend(t *testing.T) {
	backend := reflect.TypeOf((*Backend)(nil)).Elem()
	handler := reflect.TypeOf((*Handler)(nil)).Elem()
	count := map[string]int{}
	for _, m := range Methods {
		count[m.Name]++
		if _, ok := backend.MethodByName(m.Name); !ok {
			t.Errorf("descriptor %s names no Backend method", m.Name)
		}
	}
	for i := 0; i < backend.NumMethod(); i++ {
		name := backend.Method(i).Name
		if _, ok := handler.MethodByName(name); ok { // the raw entry point and the metrics probe, not requests
			continue
		}
		if count[name] != 1 {
			t.Errorf("Backend.%s has %d descriptors, want 1", name, count[name])
		}
	}
	seen := map[string]bool{}
	for _, m := range Methods {
		keys := []string{"method " + m.Name}
		if m.HTTP != "" {
			keys = append(keys, "route "+m.HTTP)
		}
		for _, k := range keys {
			if seen[k] {
				t.Errorf("%s appears twice in the table", k)
			}
			seen[k] = true
		}
	}
}
