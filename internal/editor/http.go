package editor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/afg"
	"repro/internal/repository"
	"repro/internal/tasklib"
)

// Server is the web face of the Application Editor: the stand-in for the
// paper's Java-servlet Site Manager front end. It authenticates users
// against a user-accounts database, serves the task-library menus,
// validates submitted application flow graphs, and stores/retrieves graphs
// in the site repository's application shelf.
type Server struct {
	Registry *tasklib.Registry
	Users    *repository.UserAccountsDB // nil disables authentication
	Apps     *repository.AppStore       // nil disables /apps endpoints
}

// maxBodyBytes caps every request body the server decodes: an AFG of about
// 40,000 tasks at the encoder's ~419 bytes a task. A larger body is refused
// with 400 once that many bytes are read, not buffered to its end.
const maxBodyBytes = 16 << 20

// NewServer builds an editor HTTP service.
func NewServer(reg *tasklib.Registry, users *repository.UserAccountsDB) *Server {
	if reg == nil {
		reg = tasklib.Default()
	}
	return &Server{Registry: reg, Users: users, Apps: repository.NewAppStore()}
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/libraries", s.handleLibraries)
	mux.HandleFunc("/tasks", s.handleTasks)
	mux.HandleFunc("/validate", s.handleValidate)
	mux.HandleFunc("/login", s.handleLogin)
	mux.HandleFunc("/apps", s.handleApps)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// decodeBody reads the request's JSON body into v, refusing a body larger
// than maxBodyBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
}

// handleLibraries lists the menu groups and their task functions.
func (s *Server) handleLibraries(w http.ResponseWriter, r *http.Request) {
	out := map[string][]string{}
	for _, lib := range s.Registry.Libraries() {
		out[lib] = s.Registry.ByLibrary(lib)
	}
	writeJSON(w, http.StatusOK, out)
}

// taskInfo is the menu tooltip payload for one task.
type taskInfo struct {
	Name        string  `json:"name"`
	Library     string  `json:"library"`
	Description string  `json:"description"`
	BaseTime    float64 `json:"baseTime"`
	MemReq      int64   `json:"memReq"`
	OutputBytes int64   `json:"outputBytes"`
}

// handleTasks describes one task (?name=matrix.lu) or all tasks.
func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name != "" {
		spec, err := s.Registry.Get(name)
		if err != nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, toInfo(spec))
		return
	}
	var out []taskInfo
	for _, n := range s.Registry.Names() {
		spec, err := s.Registry.Get(n)
		if err != nil {
			continue
		}
		out = append(out, toInfo(spec))
	}
	writeJSON(w, http.StatusOK, out)
}

func toInfo(spec tasklib.Spec) taskInfo {
	return taskInfo{
		Name: spec.Name, Library: spec.Library, Description: spec.Description,
		BaseTime: spec.BaseTime, MemReq: spec.MemReq, OutputBytes: spec.OutputBytes,
	}
}

// validateReply reports a submitted graph's structural health plus the
// derived scheduling metadata (critical path, total work).
type validateReply struct {
	OK           bool     `json:"ok"`
	Error        string   `json:"error,omitempty"`
	Tasks        int      `json:"tasks"`
	Links        int      `json:"links"`
	CriticalPath float64  `json:"criticalPath"`
	TotalWork    float64  `json:"totalWork"`
	Entries      []string `json:"entries,omitempty"`
	Exits        []string `json:"exits,omitempty"`
}

// handleValidate checks an AFG JSON document.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
		return
	}
	var body json.RawMessage
	if err := decodeBody(w, r, &body); err != nil {
		writeJSON(w, http.StatusBadRequest, validateReply{Error: err.Error()})
		return
	}
	g, err := afg.Decode(body)
	if err != nil {
		writeJSON(w, http.StatusOK, validateReply{Error: err.Error()})
		return
	}
	// Reject tasks that reference unknown library functions.
	for _, id := range g.TaskIDs() {
		if _, err := s.Registry.Get(g.Task(id).Function); err != nil {
			writeJSON(w, http.StatusOK, validateReply{
				Error: fmt.Sprintf("task %q: %v", id, err),
			})
			return
		}
	}
	cp, _ := g.CriticalPathLength()
	rep := validateReply{
		OK: true, Tasks: g.Len(), Links: len(g.Links()),
		CriticalPath: cp, TotalWork: g.TotalWork(),
	}
	for _, e := range g.Entries() {
		rep.Entries = append(rep.Entries, string(e))
	}
	for _, e := range g.Exits() {
		rep.Exits = append(rep.Exits, string(e))
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleApps implements the stored-application shelf:
//
//	GET  /apps?owner=U            list U's stored applications
//	GET  /apps?owner=U&name=N     fetch one stored AFG (raw JSON)
//	POST /apps?owner=U&name=N     store the posted AFG after validation
func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	if s.Apps == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "app store disabled"})
		return
	}
	owner := r.URL.Query().Get("owner")
	name := r.URL.Query().Get("name")
	switch r.Method {
	case http.MethodGet:
		if name == "" {
			writeJSON(w, http.StatusOK, map[string][]string{"apps": s.Apps.List(owner)})
			return
		}
		app, err := s.Apps.Load(owner, name)
		if err != nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(app.AFG)
	case http.MethodPost:
		var body json.RawMessage
		if err := decodeBody(w, r, &body); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if _, err := afg.Decode(body); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if err := s.Apps.Save(owner, name, body, time.Now()); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	default:
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET or POST"})
	}
}

// handleLogin authenticates the 5-tuple user account (§2: "user
// authentication" precedes loading the editor).
func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
		return
	}
	var creds struct{ User, Password string }
	if err := decodeBody(w, r, &creds); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if s.Users == nil {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "note": "authentication disabled"})
		return
	}
	acct, err := s.Users.Authenticate(creds.User, creds.Password)
	if err != nil {
		writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "authentication failed"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok": true, "userID": acct.UserID, "priority": acct.Priority, "accessDomain": acct.AccessDomain,
	})
}
