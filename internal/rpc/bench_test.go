package rpc

import (
	"context"
	"fmt"
	"net"
	"testing"

	"homeguard/internal/api"
	"homeguard/internal/corpus"
	"homeguard/internal/fleet"
)

// benchSink keeps the compiler from discarding a benchmarked result.
var benchSink any

// BenchmarkRPCRoundTrip measures the RPC edge alone: one client, one
// loopback connection, a warm Service (every demo app extracted and
// every pair verdict cached before the timer starts), so ns/op, B/op
// and allocs/op are framing, envelope and body codec plus the warm
// service core, without the fleet of processes perfbench drives.
//
//	go test -run '^$' -bench RPCRoundTrip -benchmem ./internal/rpc
//
// install installs demo apps by source, cycling through the demo set
// into fresh homes; threats reads the threat log of a home holding the
// whole demo set.
func BenchmarkRPCRoundTrip(b *testing.B) {
	demo := corpus.ByCategory(corpus.Demo)
	if len(demo) == 0 {
		b.Fatal("empty demo corpus")
	}
	svc := NewService(fleet.New(fleet.Options{Shards: 4}), ServiceOptions{})
	srv := NewServer(svc, ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	client, err := Dial(lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

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
