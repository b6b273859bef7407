package rpc

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"homeguard/internal/api"
	"homeguard/internal/corpus"
)

// reqHeaderSeeds is the REQ headers FuzzReqHeader starts from: the
// canonical forms and the near misses the scanner must hand on.
var reqHeaderSeeds = []string{
	`{"method":"Install"}`, `{"method":"Install","key":"h1","deadlineMs":1500}`, `{"method":"Apps","deadlineMs":0}`,
	`{"method":"Apps","key":""}`, `{"method":"A","deadlineMs":01}`, `{"method":"A","deadlineMs":999999999999999999}`,
	`{"method":"A","deadlineMs":9223372036854775807}`, `{"method":"A","deadlineMs":9223372036854775808}`,
	`{"method":"A","deadlineMs":18446744073710}`, `{"method":"A","deadlineMs":-1}`, `{"method":"A","deadlineMs":1.5}`,
	`{"method":"A","deadlineMs":1e3}`, ` {"method":"Apps"}`, `{"method":"Apps"} `, `{"key":"h","method":"Apps"}`,
	`{"method":"Apps"}`, `{"method":"Apps","method":"Ping"}`, `{"method":null}`, `{"method":"Apps"`,
	`{"method":7}`, `{"method":"ä"}`, `{"method":"a<b>"}`, `{"Method":"Apps"}`, `{"method":"Apps","body":{}}`,
	`{"method":"Apps","deadlineMs":5,"key":"h"}`, `{"method":"\x7f"}`, `{"method":"a\tb"}`, ``, `null`,
}

// FuzzReqHeader checks the REQ header codec against encoding/json.
// Whenever scanReqHeader accepts a header, json.Unmarshal accepts it
// and gives the same reqHeader; decodeReqHeader gives what
// json.Unmarshal gives on every input, error message included; and the
// append encoders of both headers write what json.Marshal writes.
//
//	go test -run '^$' -fuzz FuzzReqHeader -fuzztime 30s ./internal/rpc
func FuzzReqHeader(f *testing.F) {
	for _, s := range reqHeaderSeeds {
		f.Add([]byte(s), "Install", "h1", int64(1500))
	}
	f.Add([]byte(`{"method":"Apps"}`), "a<b>& \xff", "k\"\\\n", int64(-7))
	f.Add([]byte(`{"method":"Apps"}`), "", "", int64(0))
	f.Fuzz(func(t *testing.T, raw []byte, method, key string, n int64) {
		read := func(in []byte) {
			var want reqHeader
			werr := json.Unmarshal(in, &want)
			var scanned reqHeader
			if scanReqHeader(in, &scanned) && (werr != nil || scanned != want) {
				t.Fatalf("scan of %q gave %+v; json.Unmarshal %+v, %v", in, scanned, want, werr)
			}
			var got reqHeader
			gerr := decodeReqHeader(in, &got)
			if got != want || (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("decodeReqHeader(%q) = %+v, %v; json.Unmarshal %+v, %v", in, got, gerr, want, werr)
			}
		}
		read(raw)

		req := reqHeader{Method: method, Key: key, DeadlineMs: n}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := req.appendJSON([]byte("x")); string(got) != "x"+string(want) {
			t.Fatalf("REQ header %+v appends %q, json.Marshal writes %q", req, got[1:], want)
		}
		read(want)

		for _, res := range []resHeader{
			{Status: int(n % 17)},
			{Status: int(n), Error: &api.Error{Code: api.Code(method), Message: key, RetryAfterMs: n}},
		} {
			want, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.appendJSON(nil); !bytes.Equal(got, want) {
				t.Fatalf("RES header %+v appends %q, json.Marshal writes %q", res, got, want)
			}
		}
	})
}

// TestReqHeaderScanned: the headers the Client writes are read by the
// scanner, not by encoding/json.
func TestReqHeaderScanned(t *testing.T) {
	for _, hdr := range []reqHeader{
		{Method: "Install"},
		{Method: "Install", Key: "home-42", DeadlineMs: 30000},
		{Method: "SubmitApps", DeadlineMs: 1},
		{Method: "AdoptHome", Key: "h/1 x~"},
	} {
		var got reqHeader
		if enc := hdr.appendJSON(nil); !scanReqHeader(enc, &got) || got != hdr {
			t.Errorf("scan of %s = %+v, want it read as %+v", enc, got, hdr)
		}
	}
}

// FuzzScanRouteKey checks the gateway's route-key scanner against the
// decode it stands in for: whenever scanRouteKey decides a body,
// json.Unmarshal into routeKey accepts the body and reads the same
// home.
//
//	go test -run '^$' -fuzz FuzzScanRouteKey -fuzztime 30s ./internal/rpc
func FuzzScanRouteKey(f *testing.F) {
	for _, b := range edgeBodies(f) {
		f.Add([]byte(b))
	}
	for _, b := range routeKeyBodies {
		f.Add([]byte(b.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		home, ok := scanRouteKey(body)
		if !ok {
			return
		}
		var k routeKey
		if err := json.Unmarshal(body, &k); err != nil || k.Home != home {
			t.Fatalf("scan of %q read home %q; json.Unmarshal read %q, %v", body, home, k.Home, err)
		}
	})
}

// routeKeyBodies are bodies with whether scanRouteKey decides them.
var routeKeyBodies = []struct {
	body    string
	decides bool
}{
	{`{"home":"h1","corpus":"ComfortTV"}`, true},
	{` {"home" : "s" } `, true},
	{`{}`, false},
	{`{"corpus":"ComfortTV"}`, true},
	{`{"home":"a","home":"b"}`, true},
	{`{"n":-1.5e+3,"l":[true,null,{}],"o":{"a":[[],{"b":"\"\\\/\b\f\n\r\té"}]},"home":"t"}`, true},
	{`{"x":{"home":"n"},"home":"t"}`, true},
	{`{"x":"\"home\":\"n\"","home":"t"}`, true},
	{`{"items":[{"source":"def x() {\n}"}],"home":"b"}`, true},
	{`{"home":"a","home":null}`, false},
	{`{"home":null}`, false},
	{`{"Home":"a","hOME":"b"}`, false},
	{`{"home":"a","HOME":"b"}`, false},
	{`{"home":"a\u0062"}`, false},
	{`{"home":"a\n"}`, false},
	{`{"home":"ä"}`, false},
	{`{"home":7}`, false},
	{`{"home":"h","items":5}`, true},
	{`{"home":"h"} junk`, false},
	{`{"home":"h",}`, false},
	{`{"home":"h","n":01}`, false},
	{`{"home":"h","n":-}`, false},
	{`{"home":"h","n":1.}`, false},
	{`{"home":"h","n":1e}`, false},
	{`{"home":"h","s":"\x"}`, false},
	{`{"home":"h","s":"\u12"}`, false},
	{"{\"home\":\"h\",\"s\":\"a\tb\"}", false},
	{`{"home":"h","l":[1,]}`, false},
	{`{"home":"h","l":[1 2]}`, false},
	{`{"home":"h","o":{"a"}}`, false},
	{`{"home":"h","o":{"a":1]}`, false},
	{`{"home":"h","t":tru}`, false},
	{`{"home":"h","deep":` + strings.Repeat("[", maxSkipDepth) + strings.Repeat("]", maxSkipDepth) + `}`, true},
	{`{"home":"h","deep":` + strings.Repeat("[", maxSkipDepth+1) + strings.Repeat("]", maxSkipDepth+1) + `}`, false},
	{`null`, false},
	{`[]`, false},
	{``, false},
}

// TestScanRouteKey pins which bodies the scanner decides, the install
// bodies the Client marshals from the corpus apps among them, and that
// each decided body reads the home json.Unmarshal reads.
func TestScanRouteKey(t *testing.T) {
	cases := routeKeyBodies
	for _, name := range []string{"ComfortTV", "ColdDefender"} {
		app, ok := corpus.Get(name)
		if !ok {
			t.Fatalf("corpus app %s missing", name)
		}
		src, err := json.Marshal(&api.InstallRequest{Home: "home-7", Source: app.Source})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			body    string
			decides bool
		}{string(src), true})
	}
	for _, c := range cases {
		home, ok := scanRouteKey([]byte(c.body))
		if ok != c.decides {
			t.Errorf("scan of %q decided = %v, want %v", c.body, ok, c.decides)
			continue
		}
		var k routeKey
		err := json.Unmarshal([]byte(c.body), &k)
		if ok && (err != nil || k.Home != home) {
			t.Errorf("scan of %q read %q; json.Unmarshal %q, %v", c.body, home, k.Home, err)
		}
	}
}
