package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"blockchaindb/dcsatd/api"
)

// fillReader is an endless stream of one byte.
type fillReader byte

func (b fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestOversizedBodyRejected: a register body one byte over the cap —
// well-formed JSON that would decode without the cap — is refused with
// the /v1 error envelope, code bad_request.
func TestOversizedBodyRejected(t *testing.T) {
	const prefix, suffix = `{"tenant":"`, `"}`
	body := io.MultiReader(
		strings.NewReader(prefix),
		io.LimitReader(fillReader('a'), maxBodyBytes+1-int64(len(prefix)+len(suffix))),
		strings.NewReader(suffix))
	mux := http.NewServeMux()
	New(Config{}).Mount(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, api.Prefix+"/tenants", body))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want %d", rec.Code, http.StatusBadRequest)
	}
	var e api.Error
	if err := json.NewDecoder(rec.Body).Decode(&e); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if e.Code != api.CodeBadRequest || !strings.Contains(e.Message, "too large") {
		t.Fatalf("envelope %+v, want code %s for a too-large body", e, api.CodeBadRequest)
	}
}
