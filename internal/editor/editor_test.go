package editor

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/afg"
	"repro/internal/repository"
)

// buildSolver drives the Builder through the paper's Fig 3 flow.
func buildSolver(t *testing.T) *Builder {
	t.Helper()
	b := New("linsolver", nil)
	for _, task := range []struct {
		id afg.TaskID
		fn string
		p  map[string]string
	}{
		{"genA", "matrix.generate", map[string]string{"n": "64", "seed": "1"}},
		{"genB", "matrix.vector", map[string]string{"n": "64", "seed": "2"}},
		{"lu", "matrix.lu", map[string]string{"n": "64"}},
		{"solve", "matrix.solve", map[string]string{"n": "64"}},
	} {
		if err := b.AddTask(task.id, task.fn, task.p); err != nil {
			t.Fatal(err)
		}
	}
	b.SetMode(LinkMode)
	for _, l := range [][2]afg.TaskID{{"genA", "lu"}, {"lu", "solve"}, {"genB", "solve"}} {
		if err := b.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestBuilderFullFlow(t *testing.T) {
	b := buildSolver(t)
	b.SetMode(RunMode)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 || len(g.Links()) != 3 {
		t.Fatalf("graph %d tasks %d links", g.Len(), len(g.Links()))
	}
	if g.Task("lu").ComputeCost <= 0 || g.Task("lu").OutputBytes <= 0 {
		t.Fatal("cost metadata not derived")
	}
}

func TestBuilderModeEnforcement(t *testing.T) {
	b := New("x", nil)
	if err := b.Connect("a", "b"); !errors.Is(err, ErrWrongMode) {
		t.Fatalf("err = %v", err)
	}
	if _, err := b.Graph(); !errors.Is(err, ErrWrongMode) {
		t.Fatalf("err = %v", err)
	}
	b.SetMode(LinkMode)
	if err := b.AddTask("a", "synthetic.noop", nil); !errors.Is(err, ErrWrongMode) {
		t.Fatalf("err = %v", err)
	}
	if b.Mode() != LinkMode {
		t.Fatalf("mode = %v", b.Mode())
	}
}

func TestBuilderRejectsUnknownFunction(t *testing.T) {
	b := New("x", nil)
	if err := b.AddTask("a", "matrix.explode", nil); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestBuilderMenus(t *testing.T) {
	b := New("x", nil)
	libs := b.Libraries()
	if len(libs) != 4 {
		t.Fatalf("libs = %v", libs)
	}
}

func TestSetPropertiesPanel(t *testing.T) {
	b := buildSolver(t)
	if err := b.SetProperties("lu", afg.Parallel, 2, "solaris"); err != nil {
		t.Fatal(err)
	}
	b.SetMode(RunMode)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	lu := g.Task("lu")
	if lu.Mode != afg.Parallel || lu.Processors != 2 || lu.MachineType != "solaris" {
		t.Fatalf("lu = %+v", lu)
	}
	if err := b.SetProperties("ghost", afg.Sequential, 1, ""); !errors.Is(err, ErrNoTask) {
		t.Fatalf("err = %v", err)
	}
}

func TestStoreAndLoad(t *testing.T) {
	b := buildSolver(t)
	data, err := b.Store()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	back.SetMode(RunMode)
	g, err := back.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("restored %d tasks", g.Len())
	}
	if _, err := Load([]byte("{"), nil); err == nil {
		t.Fatal("garbage accepted")
	}
}

// --- HTTP service ------------------------------------------------------------

func newHTTP(t *testing.T) (*httptest.Server, *repository.UserAccountsDB) {
	t.Helper()
	users := repository.NewUserAccountsDB()
	users.Add(repository.UserAccount{UserName: "haluk", Password: "pw", Priority: 3, AccessDomain: "wide-area"})
	srv := httptest.NewServer(NewServer(nil, users).Handler())
	t.Cleanup(srv.Close)
	return srv, users
}

func TestHTTPLibraries(t *testing.T) {
	srv, _ := newHTTP(t)
	resp, err := http.Get(srv.URL + "/libraries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var libs map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&libs); err != nil {
		t.Fatal(err)
	}
	if len(libs["matrix"]) < 8 {
		t.Fatalf("libs = %v", libs)
	}
}

func TestHTTPTaskInfo(t *testing.T) {
	srv, _ := newHTTP(t)
	resp, err := http.Get(srv.URL + "/tasks?name=matrix.lu")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Name     string  `json:"name"`
		BaseTime float64 `json:"baseTime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "matrix.lu" || info.BaseTime <= 0 {
		t.Fatalf("info = %+v", info)
	}
	resp2, err := http.Get(srv.URL + "/tasks?name=matrix.unknown")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp2.StatusCode)
	}
}

func TestHTTPValidate(t *testing.T) {
	srv, _ := newHTTP(t)
	b := buildSolver(t)
	data, err := b.Store()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/validate", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep struct {
		OK           bool    `json:"ok"`
		Tasks        int     `json:"tasks"`
		CriticalPath float64 `json:"criticalPath"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.Tasks != 4 || rep.CriticalPath <= 0 {
		t.Fatalf("rep = %+v", rep)
	}
}

func TestHTTPValidateRejectsUnknownFunction(t *testing.T) {
	srv, _ := newHTTP(t)
	bad := []byte(`{"name":"x","tasks":[{"id":"a","function":"nope.nope"}],"links":[]}`)
	resp, err := http.Post(srv.URL+"/validate", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.Error == "" {
		t.Fatalf("rep = %+v", rep)
	}
}

func TestHTTPLogin(t *testing.T) {
	srv, _ := newHTTP(t)
	good := bytes.NewReader([]byte(`{"User":"haluk","Password":"pw"}`))
	resp, err := http.Post(srv.URL+"/login", "application/json", good)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	bad := bytes.NewReader([]byte(`{"User":"haluk","Password":"wrong"}`))
	resp, err = http.Post(srv.URL+"/login", "application/json", bad)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHTTPMethodGuards(t *testing.T) {
	srv, _ := newHTTP(t)
	resp, err := http.Get(srv.URL + "/validate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/login")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
