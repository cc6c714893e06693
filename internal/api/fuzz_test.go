package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"testing"
)

// FuzzHandler sends arbitrary requests through the /v1 handler over the
// recording fake and checks what every answer of the surface must be:
// never a 500 (a handler panic that recoverMW caught), always a JSON
// body, and on any non-2xx status the error envelope with a code.
// Requests ServeMux answers itself rather than routing — a path outside
// /v1/ gets its plain-text 404, an unclean one a redirect to the clean
// path — are not the /v1 surface and are skipped.
func FuzzHandler(f *testing.F) {
	for _, tc := range wireCases {
		body := ""
		if rt := RouteOf(tc.method); tc.verb == "POST" && !strings.Contains(rt.Path, "{") {
			raw, err := json.Marshal(tc.arg)
			if err != nil {
				f.Fatal(err)
			}
			body = string(raw)
		}
		f.Add(tc.verb, tc.uri, body)
	}
	for _, tc := range wireEdges {
		f.Add(tc.verb, tc.path, tc.body)
	}
	for _, body := range trailingBodies {
		f.Add("POST", "/v1/users", body)
	}
	for _, wait := range []string{"0s", "1ms", "1000h", "1e3", "-0s"} {
		f.Add("GET", "/v1/operations/op-1?wait="+wait, "")
	}

	h := NewHandler(&recSvc{}, &HandlerOptions{RatePerSecond: -1})
	f.Fuzz(func(t *testing.T, method, uri, body string) {
		req, err := http.NewRequest(method, "http://fuzz"+uri, strings.NewReader(body))
		if err != nil || !strings.HasPrefix(req.URL.Path, "/v1/") || path.Clean(req.URL.Path) != req.URL.Path {
			return
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		raw := rr.Body.Bytes()
		if rr.Code == http.StatusInternalServerError {
			t.Fatalf("%s %q %q = 500: %s", method, uri, body, raw)
		}
		if !json.Valid(raw) {
			t.Fatalf("%s %q %q = %d with a non-JSON body %q", method, uri, body, rr.Code, raw)
		}
		if rr.Code/100 == 2 {
			return
		}
		var env errorBody
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil || env.Error == nil || env.Error.Code == "" {
			t.Fatalf("%s %q %q = %d without the error envelope: %s", method, uri, body, rr.Code, raw)
		}
	})
}
