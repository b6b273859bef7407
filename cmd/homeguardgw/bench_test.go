package main

import (
	"context"
	"fmt"
	"testing"

	"homeguard/internal/api"
	"homeguard/internal/corpus"
)

// benchSink keeps the compiler from discarding a benchmarked result.
var benchSink any

// BenchmarkGatewayForward measures the gateway hop in one process: a
// client, the gateway's RPC edge over loopback, its router, and one
// in-process node behind it over loopback, warm (every demo app
// extracted and every pair verdict cached before the timer starts).
// ns/op and allocs/op therefore include the node's own work; the
// difference to BenchmarkRPCRoundTrip in internal/rpc is the hop.
//
//	go test -run '^$' -bench GatewayForward -benchmem ./cmd/homeguardgw
//
// install installs demo apps by source, cycling through the demo set
// into fresh homes; threats reads the threat log of a home holding the
// whole demo set.
func BenchmarkGatewayForward(b *testing.B) {
	demo := corpus.ByCategory(corpus.Demo)
	if len(demo) == 0 {
		b.Fatal("empty demo corpus")
	}
	client := serveRPC(b, newTestRouter(b, startNode(b, "node-a")))

	ctx := context.Background()
	install := func(home string, app corpus.App) {
		if _, err := client.Install(ctx, &api.InstallRequest{Home: home, Source: app.Source}); err != nil {
			b.Fatalf("install %s into %s: %v", app.Name, home, err)
		}
	}
	const warm = "warm"
	for _, app := range demo {
		install(warm, app)
	}

	// seq runs on across the rounds b.Run repeats with growing b.N, so
	// no round installs into a home an earlier one filled.
	seq := 0
	b.Run("install", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			install(fmt.Sprintf("home-%d", seq/len(demo)), demo[seq%len(demo)])
			seq++
		}
	})
	b.Run("threats", func(b *testing.B) {
		req := &api.ThreatsRequest{Home: warm}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := client.Threats(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = res
		}
	})
}
