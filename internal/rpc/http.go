package rpc

import (
	"encoding/json"
	"io"
	"log"
	"net/http"

	"homeguard/internal/api"
)

// RegisterHTTP serves every method of the table that has an HTTP route
// on mux, dispatching into b. A route binds its request from the body
// of a POST, then the path's {id} and the query, calls b and answers
// with the pretty-printed response, or with the {"error": {...}}
// envelope under the code's HTTP status.
func RegisterHTTP(mux *http.ServeMux, b Backend) {
	for _, m := range Methods {
		if m.HTTP == "" {
			continue
		}
		mux.HandleFunc(m.HTTP, func(w http.ResponseWriter, r *http.Request) {
			req := m.newRequest()
			if r.Method == http.MethodPost {
				if aerr := ReadBody(w, r, req); aerr != nil {
					Respond(w, nil, aerr)
					return
				}
			}
			if m.home != nil {
				*m.home(req) = r.PathValue("id")
			}
			if m.query != nil {
				if aerr := m.query(req, r.URL.Query()); aerr != nil {
					Respond(w, nil, aerr)
					return
				}
			}
			resp, aerr := m.call(b, r.Context(), req)
			Respond(w, resp, aerr)
		})
	}
}

// ReadBody reads an HTTP request body under the frame cap and decodes
// it into into with the decoder the RPC edge uses, so both edges accept
// and reject the same bytes. A body over the cap, empty, malformed or
// followed by trailing data is INVALID_ARGUMENT.
func ReadBody(w http.ResponseWriter, r *http.Request, into any) *api.Error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFrame))
	if err != nil {
		return api.Errorf(api.CodeInvalidArgument, "bad request body: %v", err)
	}
	return decodeBody(body, into)
}

// decodeBody unmarshals a request body, mapping an empty or malformed
// one to INVALID_ARGUMENT.
func decodeBody(body []byte, into any) *api.Error {
	if len(body) == 0 {
		return api.Errorf(api.CodeInvalidArgument, "empty request body")
	}
	if err := json.Unmarshal(body, into); err != nil {
		return api.Errorf(api.CodeInvalidArgument, "bad request body: %v", err)
	}
	return nil
}

// Respond writes either the success body or the error envelope, with
// the HTTP status derived from the envelope's code.
func Respond(w http.ResponseWriter, v any, aerr *api.Error) {
	if aerr != nil {
		WriteJSON(w, aerr.Code.HTTPStatus(), map[string]any{"error": aerr})
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

// WriteJSON writes v as indented JSON under status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("rpc: encode HTTP response: %v", err)
	}
}
