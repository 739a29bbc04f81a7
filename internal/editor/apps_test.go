package editor

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestHTTPAppsStoreAndRetrieve(t *testing.T) {
	srv, _ := newHTTP(t)
	b := buildSolver(t)
	data, err := b.Store()
	if err != nil {
		t.Fatal(err)
	}
	// Store under haluk/solver.
	resp, err := http.Post(srv.URL+"/apps?owner=haluk&name=solver", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("store status = %d", resp.StatusCode)
	}
	// List.
	resp, err = http.Get(srv.URL + "/apps?owner=haluk")
	if err != nil {
		t.Fatal(err)
	}
	var list struct{ Apps []string }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Apps) != 1 || list.Apps[0] != "solver" {
		t.Fatalf("apps = %v", list.Apps)
	}
	// Retrieve and rebuild through the editor.
	resp, err = http.Get(srv.URL + "/apps?owner=haluk&name=solver")
	if err != nil {
		t.Fatal(err)
	}
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	back, err := Load(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	back.SetMode(RunMode)
	g, err := back.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("restored graph has %d tasks", g.Len())
	}
}

func TestHTTPAppsRejectsInvalidGraph(t *testing.T) {
	srv, _ := newHTTP(t)
	bad := []byte(`{"name":"cyc","tasks":[{"id":"a","function":"f"},{"id":"b","function":"f"}],
		"links":[{"From":"a","To":"b"},{"From":"b","To":"a"}]}`)
	resp, err := http.Post(srv.URL+"/apps?owner=u&name=bad", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHTTPAppsMissing(t *testing.T) {
	srv, _ := newHTTP(t)
	resp, err := http.Get(srv.URL + "/apps?owner=u&name=ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Method guard.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/apps?owner=u&name=x", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// endlessBody is a request body that opens a JSON string and never closes
// it, counting the bytes the server reads.
type endlessBody struct{ read int64 }

func (b *endlessBody) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
		if b.read == 0 {
			p[i] = '"'
		}
		b.read++
	}
	return len(p), nil
}

// TestHTTPBodyIsCapped: an oversized POST to each endpoint that decodes a
// body is refused with 400, and the server stops reading at maxBodyBytes.
func TestHTTPBodyIsCapped(t *testing.T) {
	h := NewServer(nil, nil).Handler()
	for _, path := range []string{"/validate", "/apps?owner=u&name=big", "/login"} {
		body := &endlessBody{}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, rec.Code)
		}
		if body.read < maxBodyBytes || body.read > maxBodyBytes+1 {
			t.Errorf("%s: server read %d bytes, want it to stop at %d", path, body.read, maxBodyBytes)
		}
	}
}
