package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"homeguard/internal/detect"
)

// BenchmarkLiveHeapPerHome reports the live heap a fleet holds per home
// (B/home, measured after runtime.GC) for 500 homes of 12 apps drawn from
// the demo and benign pool: once with nil configs, where every home can
// share each installed app, and once with distinct device bindings per
// home, where no two homes share one.
//
//	go test -run '^$' -bench LiveHeapPerHome -benchtime 1x ./internal/fleet
func BenchmarkLiveHeapPerHome(b *testing.B) {
	const homes = 500
	pool := restorePool()
	for _, mode := range []string{"nil-config", "distinct-bindings"} {
		b.Run(mode, func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				f := New(Options{})
				rng := rand.New(rand.NewSource(1))
				for h := 0; h < homes; h++ {
					id := fmt.Sprintf("home-%04d", h)
					for _, app := range rng.Perm(len(pool))[:12] {
						var cfg *detect.Config
						if mode == "distinct-bindings" {
							res, err := f.Cache().Extract(pool[app], "")
							if err != nil {
								b.Fatal(err)
							}
							cfg = detect.NewConfig()
							for _, in := range res.App.Inputs {
								if in.Capability != "" {
									cfg.Devices[in.Name] = fmt.Sprintf("dev-%s-%s", id, in.Name)
								}
							}
						}
						if _, err := f.Install(ctx, id, pool[app], cfg); err != nil {
							b.Fatal(err)
						}
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(f)
				b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/homes, "B/home")
			}
		})
	}
}
