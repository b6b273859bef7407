package rpc

import (
	"encoding/json"
	"io"
	"log"
	"net/http"

	"homeguard/internal/api"
)

// RegisterHTTP serves every method of the table that has an HTTP route
// on mux, dispatching into h. A POST route hands its body to h.Serve
// verbatim; a GET route marshals the request it binds from the path's
// {id} and the query. Either passes {id} as the key, and a response
// buffer from the pool the RPC server uses (putBody). The response is
// the body h returns plus a newline, or the {"error": {...}} envelope
// under the code's HTTP status.
func RegisterHTTP(mux *http.ServeMux, h Handler) {
	h = handlerOf(h)
	for _, m := range Methods {
		if m.HTTP == "" {
			continue
		}
		mux.HandleFunc(m.HTTP, func(w http.ResponseWriter, r *http.Request) {
			body, aerr := httpBody(m, w, r)
			if aerr != nil {
				Respond(w, nil, aerr)
				return
			}
			key := ""
			if m.home != nil {
				key = r.PathValue("id")
			}
			bp := getBody()
			out, aerr := h.Serve(r.Context(), m, key, body, *bp)
			respondBody(w, out, aerr)
			putBody(bp, out)
		})
	}
}

// httpBody is the request body of one HTTP call of m: a POST's body as
// sent, or the request a GET binds from the path's {id} and the query,
// marshaled.
func httpBody(m *Method, w http.ResponseWriter, r *http.Request) ([]byte, *api.Error) {
	if r.Method == http.MethodPost {
		return readBody(w, r)
	}
	req := m.newRequest()
	if m.home != nil {
		*m.home(req) = r.PathValue("id")
	}
	if m.query != nil {
		if aerr := m.query(req, r.URL.Query()); aerr != nil {
			return nil, aerr
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "encode request: %v", err)
	}
	return body, nil
}

// ReadBody reads an HTTP request body under the frame cap and decodes
// it into into with the decoder the RPC edge uses, so both edges accept
// and reject the same bytes. A body over the cap, empty, malformed or
// followed by trailing data is INVALID_ARGUMENT.
func ReadBody(w http.ResponseWriter, r *http.Request, into any) *api.Error {
	body, aerr := readBody(w, r)
	if aerr != nil {
		return aerr
	}
	return decodeBody(body, into)
}

// readBody reads an HTTP request body under the frame cap; a body over
// the cap is INVALID_ARGUMENT.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, *api.Error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFrame))
	if err != nil {
		return nil, api.Errorf(api.CodeInvalidArgument, "bad request body: %v", err)
	}
	return body, nil
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

// respondBody writes a response body already encoded as compact JSON,
// or the error envelope. The body is relayed as it is plus a newline,
// which is exactly what WriteJSON writes for the value it encodes.
// body is the caller's own buffer (the dst it gave Handler.Serve), so
// the newline is appended to it and the answer is one write.
func respondBody(w http.ResponseWriter, body []byte, aerr *api.Error) {
	if aerr != nil {
		Respond(w, nil, aerr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(append(body, '\n')); err != nil {
		log.Printf("rpc: write HTTP response: %v", err)
	}
}

// WriteJSON writes v as compact, newline-terminated JSON under status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("rpc: encode HTTP response: %v", err)
	}
}
