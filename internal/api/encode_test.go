package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"homeguard/internal/audit"
	"homeguard/internal/corpus"
	"homeguard/internal/fleet"
)

type appender interface{ AppendJSON([]byte) []byte }

// sameAsMarshal fails t unless v's AppendJSON bytes are json.Marshal's.
func sameAsMarshal(t testing.TB, what string, v appender) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", what, err)
	}
	// A non-empty prefix checks that AppendJSON appends rather than
	// overwrites.
	got := v.AppendJSON([]byte("prefix"))
	if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
		t.Fatalf("%s: AppendJSON differs from json.Marshal\n  append:  %s\n  marshal: %s", what, got, want)
	}
}

// FuzzAppendJSON checks the string escaper against encoding/json on
// arbitrary strings, alone and in every string field of the responses.
//
//	go test -run '^$' -fuzz FuzzAppendJSON -fuzztime 30s ./internal/api
func FuzzAppendJSON(f *testing.F) {
	for _, s := range []string{
		"", "plain ascii", `<script>alert("x")</script> & more`, "tab\there\nnew\rline\bback\fform",
		"\x00\x01\x1f\x7f", "back\\slash \"quoted\"", "\xff\xfe invalid \xc3", "\xe2\x80\xa8 and \xe2\x80\xa9",
		"\xe2\x80", "  ⚠ [AR] Actuator Race: rules A/r1 and B/r2 — devices may oscillate.", "  • When the home's mode changes",
		"interference chain: A/r1 —CT→ B/r2", "\xed\xa0\x80 surrogate", "\xf4\x90\x80\x80 beyond U+10FFFF",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal = %s", s, got, want)
		}
		th := Threat{Index: len(s) - 3, Kind: s, Class: s, Rule1: s, Rule2: s, Property: s, Note: s, Text: s}
		ths := []Threat{th, {Index: -1, Text: s}}
		fs := []Finding{{App1: s, App2: s, Threat: th}}
		sameAsMarshal(t, "install", &InstallResponse{HomeID: s, App: s, Rules: []string{s}, Threats: ths,
			Chains: []string{s, s}, Report: s, Warnings: []string{s}})
		sameAsMarshal(t, "reconfigure", &ReconfigureResponse{HomeID: s, App: s, Threats: ths})
		sameAsMarshal(t, "threats", &ThreatsResponse{HomeID: s, Active: len(s)%2 == 0, Threats: ths})
		sub := &SubmitAppsResponse{Rev: uint64(len(s)), Apps: len(s), Pairs: -len(s), Added: fs, Resolved: fs,
			Errors:     map[string]*Error{s: {Code: Code(s), Message: s, RetryAfterMs: int64(len(s))}, s + "x": nil},
			DurationMs: float64(len(s)) / 7}
		sameAsMarshal(t, "submit", sub)
		sameAsMarshal(t, "error", &Error{Code: Code(s), Message: s, RetryAfterMs: -int64(len(s))})
		sameAsMarshal(t, "findings", &FindingsResponse{Rev: 1, Since: uint64(len(s)), Reset: len(s)%2 == 1, Added: fs})
	})
}

// TestAppendJSONEdgeValues covers the values the fuzzer's strings do
// not reach: nil lists (null where not omitempty), empty lists, an
// empty error map, and floats at the edges of encoding/json's exponent
// notation.
func TestAppendJSONEdgeValues(t *testing.T) {
	sameAsMarshal(t, "zero install", &InstallResponse{})
	sameAsMarshal(t, "empty install", &InstallResponse{Rules: []string{}, Threats: []Threat{}, Chains: []string{}, Warnings: []string{}})
	sameAsMarshal(t, "zero reconfigure", &ReconfigureResponse{})
	sameAsMarshal(t, "zero threats", &ThreatsResponse{})
	sameAsMarshal(t, "zero findings", &FindingsResponse{})
	sameAsMarshal(t, "empty findings", &FindingsResponse{Added: []Finding{}, Resolved: []Finding{}})
	sameAsMarshal(t, "empty errors", &SubmitAppsResponse{Errors: map[string]*Error{}})
	for _, d := range []float64{0, -0.0, 1, -1.5, 0.001, 1e-6, 9.99e-7, 1.234e-7, 1e-10, 1e20, 1e21, 123456789e15, -3e-9, 2.5e300, 5e-324} {
		sameAsMarshal(t, fmt.Sprintf("durationMs %g", d), &SubmitAppsResponse{Rev: ^uint64(0), DurationMs: d})
	}
}

// TestAppendJSONCoversEveryField sets every exported field of the five
// responses, and of the threats, findings and errors inside them, first
// all together and then one top-level field at a time. A field added to
// one of these types fails here until AppendJSON writes it as
// json.Marshal does, omitempty included.
func TestAppendJSONCoversEveryField(t *testing.T) {
	for _, v := range []appender{&InstallResponse{}, &ReconfigureResponse{}, &ThreatsResponse{}, &SubmitAppsResponse{}, &FindingsResponse{}} {
		typ := reflect.TypeOf(v).Elem()
		all := reflect.New(typ)
		fillValue(all.Elem())
		sameAsMarshal(t, typ.Name()+" with every field set", all.Interface().(appender))
		for i := 0; i < typ.NumField(); i++ {
			if !typ.Field(i).IsExported() {
				continue
			}
			one := reflect.New(typ)
			fillValue(one.Elem().Field(i))
			sameAsMarshal(t, typ.Name()+" with only "+typ.Field(i).Name+" set", one.Interface().(appender))
		}
	}
}

// fillValue sets v, and every exported field, element and map entry
// under it, to a non-zero value; strings carry characters that escape.
func fillValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("<" + v.Type().Name() + " & \u2028>\n\"é")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(-7)
	case reflect.Uint64:
		v.SetUint(7)
	case reflect.Float64:
		v.SetFloat(2.5e-7)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillValue(v.Index(i))
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for _, k := range []string{"b", "a"} {
			key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			key.SetString(k)
			fillValue(val)
			v.SetMapIndex(key, val)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillValue(v.Field(i))
			}
		}
	default:
		panic("fillValue: no case for " + v.Type().String())
	}
}

// TestAppendJSONMatchesMarshalOnCorpus checks the five responses
// against json.Marshal on real verdicts: every corpus app installed into
// homes of two sizes, reconfigured, the homes' threat logs and active
// sets read, and a store audited in batches with removes and per-app
// errors, its feed read from every revision it retains and from ones
// it no longer does.
func TestAppendJSONMatchesMarshalOnCorpus(t *testing.T) {
	apps := corpus.All()
	f := fleet.New(fleet.Options{Shards: 4})
	ctx := context.Background()
	installs, threats := 0, 0
	for _, size := range []int{5, 12} {
		for start := 0; start < len(apps); start += size {
			home := fmt.Sprintf("h%d-%d", size, start)
			var names []string
			for _, app := range apps[start:min(start+size, len(apps))] {
				res, err := f.Install(ctx, home, app.Source, nil)
				if err != nil {
					continue
				}
				installs++
				threats += len(res.Threats)
				names = append(names, res.App.Name)
				sameAsMarshal(t, "install "+app.Name, InstallResponseOf(res))
			}
			for _, name := range names {
				res, err := f.Reconfigure(ctx, home, name, nil)
				if err != nil {
					t.Fatalf("reconfigure %s in %s: %v", name, home, err)
				}
				sameAsMarshal(t, "reconfigure "+name, ReconfigureResponseOf(res))
			}
			if len(names) == 0 {
				continue
			}
			log, err := f.Threats(home)
			if err != nil {
				t.Fatal(err)
			}
			sameAsMarshal(t, "threats "+home, &ThreatsResponse{HomeID: home, Threats: ThreatsOf(log, 0)})
			active, err := f.ActiveThreats(home)
			if err != nil {
				t.Fatal(err)
			}
			sameAsMarshal(t, "active "+home, &ThreatsResponse{HomeID: home, Active: true, Threats: ThreatsOf(active, -1)})
		}
	}
	if installs < 200 || threats == 0 {
		t.Fatalf("corpus installs = %d with %d threats; the property needs the whole corpus", installs, threats)
	}

	aud := audit.NewAuditor(audit.AuditorOptions{History: 3})
	var batches []audit.Batch
	for start := 0; start < len(apps); start += 30 {
		var b audit.Batch
		for _, app := range apps[start:min(start+30, len(apps))] {
			b.Upserts = append(b.Upserts, audit.App{Source: app.Source})
		}
		batches = append(batches, b)
	}
	batches = append(batches,
		audit.Batch{Removes: []string{apps[0].Name, apps[7].Name, "NoSuchApp"}},
		audit.Batch{Upserts: []audit.App{{Name: "Broken <&>", Source: "definition(name: 'x'"}}, Removes: []string{apps[40].Name}},
		audit.Batch{Removes: []string{apps[1].Name}},
	)
	errs, resolved := 0, 0
	for _, b := range batches {
		rev, err := aud.Apply(b)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		errs += len(rev.Errors)
		resolved += len(rev.Resolved)
		resp := SubmitAppsResponseOf(rev)
		sameAsMarshal(t, fmt.Sprintf("submit rev %d", rev.Rev), resp)
		// The feed SubmitApps relays is byte for byte the feed rendered
		// from the auditor's history.
		feed := resp.Feed()
		sameAsMarshal(t, fmt.Sprintf("feed of rev %d", rev.Rev), feed)
		rendered, err := json.Marshal(FindingsResponseOf(aud.FindingsSince(rev.Rev - 1)))
		if err != nil {
			t.Fatal(err)
		}
		if got := feed.AppendJSON(nil); !bytes.Equal(got, rendered) {
			t.Fatalf("rev %d: relayed feed differs from the rendered one\n  relay:    %s\n  rendered: %s", rev.Rev, got, rendered)
		}
		for since := uint64(0); since <= rev.Rev; since++ {
			sameAsMarshal(t, fmt.Sprintf("findings since %d at rev %d", since, rev.Rev), FindingsResponseOf(aud.FindingsSince(since)))
		}
	}
	if errs != 2 || resolved == 0 {
		t.Fatalf("store batches reported %d per-app errors and %d resolved findings; want the 2 planted errors and some resolved", errs, resolved)
	}
}
