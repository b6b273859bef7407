package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"

	"homeguard/internal/api"
	"homeguard/internal/audit"
	"homeguard/internal/corpus"
)

func TestRPCStoreSubmitAndFindings(t *testing.T) {
	_, client := startEdge(t, ServiceOptions{
		Auditor: audit.NewAuditor(audit.AuditorOptions{}),
	}, ServerOptions{})
	ctx := context.Background()

	// First submission: two corpus apps whose interaction is a known
	// interference pair.
	res, err := client.SubmitApps(ctx, &api.SubmitAppsRequest{
		Upserts: []api.StoreApp{{Corpus: "ComfortTV"}, {Corpus: "ColdDefender"}},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Rev != 1 || res.Apps != 2 {
		t.Errorf("submit = rev %d, %d apps; want rev 1, 2 apps", res.Rev, res.Apps)
	}
	if len(res.Added) == 0 {
		t.Fatal("ComfortTV+ColdDefender submission reported no added findings")
	}
	for _, f := range res.Added {
		if f.App1 == "" || f.App2 == "" || f.Threat.Kind == "" || f.Threat.Text == "" {
			t.Errorf("finding missing fields: %+v", f)
		}
	}

	// The feed from rev 0 replays the whole delta.
	feed, err := client.Findings(ctx, &api.FindingsRequest{Since: 0})
	if err != nil {
		t.Fatalf("findings: %v", err)
	}
	if feed.Rev != 1 || feed.Reset {
		t.Errorf("feed = rev %d reset=%v; want rev 1, no reset", feed.Rev, feed.Reset)
	}
	if len(feed.Added) != len(res.Added) || len(feed.Resolved) != 0 {
		t.Errorf("feed delta = +%d/-%d, submit reported +%d", len(feed.Added), len(feed.Resolved), len(res.Added))
	}

	// Removing one side of the pair resolves its findings.
	res, err = client.SubmitApps(ctx, &api.SubmitAppsRequest{Removes: []string{"ColdDefender"}})
	if err != nil {
		t.Fatalf("remove: %v", err)
	}
	if res.Rev != 2 || res.Apps != 1 || len(res.Resolved) == 0 {
		t.Errorf("remove = rev %d, %d apps, -%d; want rev 2, 1 app, resolved findings", res.Rev, res.Apps, len(res.Resolved))
	}
	feed, err = client.Findings(ctx, &api.FindingsRequest{Since: 1})
	if err != nil {
		t.Fatalf("findings since 1: %v", err)
	}
	if feed.Rev != 2 || len(feed.Added) != 0 || len(feed.Resolved) != len(res.Resolved) {
		t.Errorf("feed since 1 = rev %d +%d/-%d; want rev 2, -%d only", feed.Rev, len(feed.Added), len(feed.Resolved), len(res.Resolved))
	}

	// Per-app failures ride in the response without failing the batch.
	res, err = client.SubmitApps(ctx, &api.SubmitAppsRequest{Removes: []string{"NoSuchApp"}})
	if err != nil {
		t.Fatalf("remove unknown: %v", err)
	}
	if e := res.Errors["NoSuchApp"]; e == nil || e.Code != api.CodeNotFound {
		t.Errorf("unknown remove error = %+v; want NOT_FOUND envelope", res.Errors["NoSuchApp"])
	}

	// An empty batch is a client error.
	if _, err := client.SubmitApps(ctx, &api.SubmitAppsRequest{}); codeOf(t, err) != api.CodeInvalidArgument {
		t.Errorf("empty batch code = %v, want INVALID_ARGUMENT", codeOf(t, err))
	}
}

func TestRPCStoreDisabledEdge(t *testing.T) {
	_, client := startEdge(t, ServiceOptions{}, ServerOptions{})
	ctx := context.Background()

	_, err := client.SubmitApps(ctx, &api.SubmitAppsRequest{
		Upserts: []api.StoreApp{{Corpus: "ComfortTV"}},
	})
	if codeOf(t, err) != api.CodeFailedPrecondition {
		t.Errorf("SubmitApps on storeless edge = %v, want FAILED_PRECONDITION", codeOf(t, err))
	}
	_, err = client.Findings(ctx, &api.FindingsRequest{})
	if codeOf(t, err) != api.CodeFailedPrecondition {
		t.Errorf("Findings on storeless edge = %v, want FAILED_PRECONDITION", codeOf(t, err))
	}
}

// relayed reports whether feed is the relay of the revision SubmitApps
// answered last: it shares that answer's findings instead of holding
// findings rendered for this read.
func relayed(svc *Service, feed *api.FindingsResponse) bool {
	last := svc.lastFeed.Load()
	if last == nil || feed.Rev != last.Rev {
		return false
	}
	shares := func(a, b []api.Finding) bool { return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] }
	return shares(feed.Added, last.Added) || shares(feed.Resolved, last.Resolved)
}

// feedCheck reads the feed from since over the edge and through the
// typed method, and fails t unless the edge's bytes are the feed
// rendered from the auditor's history and the read took the path
// wantRelay names.
func feedCheck(t *testing.T, svc *Service, client *Client, since uint64, wantRelay bool) *api.FindingsResponse {
	t.Helper()
	ctx := context.Background()
	got, err := client.CallRaw(ctx, MethodFindings.Name, "", []byte(fmt.Sprintf(`{"since":%d}`, since)))
	if err != nil {
		t.Fatalf("findings since %d: %v", since, err)
	}
	want, err := json.Marshal(api.FindingsResponseOf(svc.Auditor().FindingsSince(since)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("findings since %d over the edge:\n  got:  %s\n  want: %s", since, got, want)
	}
	feed, aerr := svc.Findings(ctx, &api.FindingsRequest{Since: since})
	if aerr != nil {
		t.Fatal(aerr)
	}
	if r := relayed(svc, feed); r != wantRelay {
		t.Fatalf("findings since %d at rev %d: relayed = %v, want %v", since, feed.Rev, r, wantRelay)
	}
	return feed
}

// TestFindingsRelayNeverStale: a revision applied on the Auditor
// directly, which the edge never saw, is answered from the auditor's
// history and not from the edge's older encoded revision; the next
// revision through the edge is relayed again.
func TestFindingsRelayNeverStale(t *testing.T) {
	aud := audit.NewAuditor(audit.AuditorOptions{})
	svc, client := startEdge(t, ServiceOptions{Auditor: aud}, ServerOptions{})
	ctx := context.Background()
	submit := func(req *api.SubmitAppsRequest) {
		t.Helper()
		if _, err := client.SubmitApps(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	submit(&api.SubmitAppsRequest{Upserts: []api.StoreApp{{Corpus: "ComfortTV"}, {Corpus: "ColdDefender"}}})
	feedCheck(t, svc, client, 0, true)

	if _, err := aud.Apply(audit.Batch{Removes: []string{"ColdDefender"}}); err != nil {
		t.Fatal(err)
	}
	if feed := feedCheck(t, svc, client, 1, false); feed.Rev != 2 || len(feed.Resolved) == 0 {
		t.Fatalf("feed since 1 = rev %d, -%d; want rev 2 with the direct revision's resolved findings", feed.Rev, len(feed.Resolved))
	}
	feedCheck(t, svc, client, 0, false)

	submit(&api.SubmitAppsRequest{Upserts: []api.StoreApp{{Corpus: "ColdDefender"}}})
	feedCheck(t, svc, client, 2, true)
	feedCheck(t, svc, client, 1, false)
	feedCheck(t, svc, client, 3, false)
}

// TestFindingsResetTakesGeneralPath: with one revision of history, a
// read from before it is a Reset snapshot of the active set, rendered
// for the read, while the newest revision's own feed is still relayed.
func TestFindingsResetTakesGeneralPath(t *testing.T) {
	aud := audit.NewAuditor(audit.AuditorOptions{History: 1})
	svc, client := startEdge(t, ServiceOptions{Auditor: aud}, ServerOptions{})
	ctx := context.Background()
	for _, app := range []string{"ComfortTV", "ColdDefender"} {
		if _, err := client.SubmitApps(ctx, &api.SubmitAppsRequest{Upserts: []api.StoreApp{{Corpus: app}}}); err != nil {
			t.Fatal(err)
		}
	}
	if feed := feedCheck(t, svc, client, 0, false); !feed.Reset || len(feed.Added) == 0 {
		t.Fatalf("feed since 0 with one revision retained: reset=%v +%d; want a Reset snapshot", feed.Reset, len(feed.Added))
	}
	feedCheck(t, svc, client, 1, true)
}

// TestConcurrentSubmitAndFindings races store batches against feed
// reads (run it under -race): the deltas a reader folds, relayed or
// rendered, end at the findings a from-scratch audit of the final
// store reports.
func TestConcurrentSubmitAndFindings(t *testing.T) {
	aud := audit.NewAuditor(audit.AuditorOptions{})
	_, client := startEdge(t, ServiceOptions{Auditor: aud}, ServerOptions{})
	ctx := context.Background()
	apps := append(corpus.ByCategory(corpus.Demo), corpus.StoreAudit()[:7]...)
	const writers = 3
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []string
			for i := w; i < len(apps); i += writers {
				if _, err := client.SubmitApps(ctx, &api.SubmitAppsRequest{Upserts: []api.StoreApp{{Corpus: apps[i].Name}}}); err != nil {
					errs <- err
					return
				}
				mine = append(mine, apps[i].Name)
			}
			if _, err := client.SubmitApps(ctx, &api.SubmitAppsRequest{Removes: mine[:1]}); err != nil {
				errs <- err
			}
		}(w)
	}
	// fold counts fs into set n times, keyed by each finding's identity
	// without its text (the text names a solver witness, which a pair
	// re-solved in another order may pick anew).
	fold := func(set map[string]int, fs []api.Finding, n int) {
		for _, f := range fs {
			k := strings.Join([]string{f.App1, f.App2, f.Threat.Kind, f.Threat.Rule1, f.Threat.Rule2, f.Threat.Property, f.Threat.Note}, "\x00")
			if set[k] += n; set[k] == 0 {
				delete(set, k)
			}
		}
	}
	seen := map[string]int{}
	var rev uint64
	read := func() error {
		feed, err := client.Findings(ctx, &api.FindingsRequest{Since: rev})
		if err != nil {
			return err
		}
		if feed.Reset {
			clear(seen)
		}
		fold(seen, feed.Added, 1)
		fold(seen, feed.Resolved, -1)
		rev = feed.Rev
		return nil
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if err := read(); err != nil {
			t.Fatal(err)
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := read(); err != nil {
		t.Fatal(err)
	}

	// The from-scratch audit installs the final store in the order the
	// incremental one holds it, so each pair has the same earlier side.
	scratch := audit.NewAuditor(audit.AuditorOptions{})
	var batch audit.Batch
	for _, name := range aud.Apps() {
		app, _ := corpus.Get(name)
		batch.Upserts = append(batch.Upserts, audit.App{Source: app.Source})
	}
	if _, err := scratch.Apply(batch); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	fold(want, api.FindingsOf(scratch.Findings()), 1)
	if !maps.Equal(seen, want) {
		t.Fatalf("folded feed (%d findings) differs from a from-scratch audit (%d findings)", len(seen), len(want))
	}
	if len(want) == 0 {
		t.Fatal("the final store has no findings; the check needs some")
	}
}
