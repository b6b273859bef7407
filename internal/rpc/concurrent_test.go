package rpc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"homeguard/internal/api"
	"homeguard/internal/corpus"
	"homeguard/internal/fleet"
)

// TestConcurrentEdgesAnswerTheirOwnHome drives one node through both
// edges at once: workers share one RPC connection and one HTTP client,
// each installs the demo apps into a home of its own (in its own order)
// and reads the home's threat log after every install over the other
// edge. Every answer must decode, name its request's home, and name only
// rules of apps that home holds. A response buffer that went back to the
// pool while still being written, or that two requests shared, shows up
// as another home's body or as bytes that do not decode (and as a race
// under -race).
func TestConcurrentEdgesAnswerTheirOwnHome(t *testing.T) {
	svc := NewService(fleet.New(fleet.Options{Shards: 4}), ServiceOptions{})
	srv := NewServer(svc, ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	mux := http.NewServeMux()
	RegisterHTTP(mux, svc)
	hs := httptest.NewServer(mux)
	defer hs.Close()
	hc := hs.Client()

	httpCall := func(method, path, body string, out any) error {
		req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, b)
		}
		return json.Unmarshal(b, out)
	}

	ctx := context.Background()
	demo := corpus.ByCategory(corpus.Demo)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			home := fmt.Sprintf("home-%d", w)
			held := map[string]bool{}
			var err error
			for i := range demo {
				app := demo[(w+i)%len(demo)].Name
				overRPC := (w+i)%2 == 0
				inst := new(api.InstallResponse)
				if overRPC {
					inst, err = client.Install(ctx, &api.InstallRequest{Home: home, Corpus: app})
				} else {
					err = httpCall("POST", "/homes/"+home+"/install", `{"corpus":"`+app+`"}`, inst)
				}
				if err != nil {
					t.Errorf("%s: install %s: %v", home, app, err)
					return
				}
				if inst.HomeID != home {
					t.Errorf("%s: install %s answered for home %q", home, app, inst.HomeID)
					return
				}
				held[inst.App] = true
				threats := new(api.ThreatsResponse)
				if overRPC {
					err = httpCall("GET", "/homes/"+home+"/threats", "", threats)
				} else {
					threats, err = client.Threats(ctx, &api.ThreatsRequest{Home: home})
				}
				if err != nil {
					t.Errorf("%s: threats: %v", home, err)
					return
				}
				if threats.HomeID != home {
					t.Errorf("%s: threats answered for home %q", home, threats.HomeID)
					return
				}
				for _, th := range append(inst.Threats, threats.Threats...) {
					for _, id := range []string{th.Rule1, th.Rule2} {
						if a, _, _ := strings.Cut(id, "/"); !held[a] || !strings.Contains(th.Text, id) {
							t.Errorf("%s (holding %v): threat names rule %q: %s", home, held, id, th.Text)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
