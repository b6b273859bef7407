package rpc

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"homeguard/internal/api"
	"homeguard/internal/corpus"
	"homeguard/internal/fleet"
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

// threatsStub answers Threats with a response built up front, so serving
// it allocates for the request alone.
type threatsStub struct {
	Backend
	res *api.ThreatsResponse
}

func (b *threatsStub) Threats(context.Context, *api.ThreatsRequest) (*api.ThreatsResponse, *api.Error) {
	return b.res, nil
}

// TestServeAppendsIntoDst: a warm serve appends the response body to
// the caller's buffer, byte for byte json.Marshal's, and allocates
// nothing for it: a serve into a reused dst makes no more allocations
// than decoding its request does.
func TestServeAppendsIntoDst(t *testing.T) {
	ctx := context.Background()
	svc := NewService(fleet.New(fleet.Options{Shards: 1}), ServiceOptions{})
	for _, app := range corpus.ByCategory(corpus.Demo) {
		if _, aerr := svc.Install(ctx, &api.InstallRequest{Home: "h", Corpus: app.Name}); aerr != nil {
			t.Fatal(aerr)
		}
	}
	res, aerr := svc.Threats(ctx, &api.ThreatsRequest{Home: "h"})
	if aerr != nil || len(res.Threats) == 0 {
		t.Fatalf("threats: %v (%d)", aerr, len(res.Threats))
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var b Backend = &threatsStub{res: res}
	m, body := MethodThreats.Method, []byte(`{"home":"h"}`)
	dst := append(make([]byte, 0, 2*len(want)), "prefix"...)
	out, aerr := m.serve(ctx, b, "", body, dst)
	if aerr != nil || string(out) != "prefix"+string(want) || &out[0] != &dst[:1][0] {
		t.Fatalf("serve appended %q (error %v), want %q after the prefix in dst", out, aerr, want)
	}
	decode := testing.AllocsPerRun(100, func() {
		if aerr := decodeBody(body, m.newRequest()); aerr != nil {
			t.Fatal(aerr)
		}
	})
	serve := testing.AllocsPerRun(100, func() {
		if _, aerr := m.serve(ctx, b, "", body, dst[:0]); aerr != nil {
			t.Fatal(aerr)
		}
	})
	if serve > decode {
		t.Errorf("serve into a reused dst made %.1f allocations, its request decode %.1f: the body allocated", serve, decode)
	}
}
