// Package repository implements the VDCE Site Repository: the web-based
// storage environment within a VDCE site (paper §2), consisting of four
// databases — user accounts, resource performance, task performance, and
// task constraints. All databases are safe for concurrent use (the Site
// Manager, Application Scheduler, and Monitor daemons all read/write them)
// and the whole repository serialises to JSON for persistence.
package repository

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Sentinel errors.
var (
	ErrNotFound      = errors.New("repository: not found")
	ErrDuplicate     = errors.New("repository: duplicate entry")
	ErrAuthFailed    = errors.New("repository: authentication failed")
	ErrInvalidRecord = errors.New("repository: invalid record")
)

// ---------------------------------------------------------------------------
// User-accounts database
// ---------------------------------------------------------------------------

// UserAccount is the paper's 5-tuple: user name, password, user ID,
// priority, and access domain type.
type UserAccount struct {
	UserName     string `json:"userName"`
	Password     string `json:"password"` // the 1997 paper stores it plainly; so do we
	UserID       int    `json:"userID"`
	Priority     int    `json:"priority"`
	AccessDomain string `json:"accessDomain"` // e.g. "local", "wide-area"
}

// UserAccountsDB handles user authentication.
type UserAccountsDB struct {
	mu       sync.RWMutex
	accounts map[string]UserAccount
	nextID   int
}

// NewUserAccountsDB returns an empty accounts database.
func NewUserAccountsDB() *UserAccountsDB {
	return &UserAccountsDB{accounts: make(map[string]UserAccount), nextID: 1}
}

// Add registers a new account, assigning the next user ID if a.UserID == 0.
func (db *UserAccountsDB) Add(a UserAccount) (UserAccount, error) {
	if a.UserName == "" {
		return a, fmt.Errorf("%w: empty user name", ErrInvalidRecord)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.accounts[a.UserName]; ok {
		return a, fmt.Errorf("%w: user %q", ErrDuplicate, a.UserName)
	}
	if a.UserID == 0 {
		a.UserID = db.nextID
	}
	if a.UserID >= db.nextID {
		db.nextID = a.UserID + 1
	}
	db.accounts[a.UserName] = a
	return a, nil
}

// Authenticate checks a user/password pair and returns the account.
func (db *UserAccountsDB) Authenticate(user, password string) (UserAccount, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	a, ok := db.accounts[user]
	if !ok || a.Password != password {
		return UserAccount{}, ErrAuthFailed
	}
	return a, nil
}

func (db *UserAccountsDB) snapshot() []UserAccount {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]UserAccount, 0, len(db.accounts))
	for _, a := range db.accounts {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UserName < out[j].UserName })
	return out
}

// ---------------------------------------------------------------------------
// Resource-performance database
// ---------------------------------------------------------------------------

// ResourceStatic holds the attributes "stored in the database once during
// the initial configuration of VDCE".
type ResourceStatic struct {
	HostName    string  `json:"hostName"`
	IPAddr      string  `json:"ipAddr"`
	Site        string  `json:"site"`
	Arch        string  `json:"arch"`
	OSType      string  `json:"osType"`
	TotalMemory int64   `json:"totalMemory"`
	SpeedFactor float64 `json:"speedFactor"`
}

// ResourceDynamic holds the periodically updated attributes: "recent load
// measurement and available memory size", plus up/down state from the
// failure detector.
type ResourceDynamic struct {
	Load            float64   `json:"load"`
	AvailableMemory int64     `json:"availableMemory"`
	Down            bool      `json:"down"`
	UpdatedAt       time.Time `json:"updatedAt"`
}

// ResourceRecord is one host's full entry.
type ResourceRecord struct {
	Static  ResourceStatic  `json:"static"`
	Dynamic ResourceDynamic `json:"dynamic"`
}

// ResourcePerfDB is the resource-performance database.
type ResourcePerfDB struct {
	mu      sync.RWMutex
	records map[string]*ResourceRecord
}

// NewResourcePerfDB returns an empty resource database.
func NewResourcePerfDB() *ResourcePerfDB {
	return &ResourcePerfDB{records: make(map[string]*ResourceRecord)}
}

// Register inserts a host's static attributes (initial configuration).
func (db *ResourcePerfDB) Register(s ResourceStatic) error {
	if s.HostName == "" {
		return fmt.Errorf("%w: empty host name", ErrInvalidRecord)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.records[s.HostName]; ok {
		return fmt.Errorf("%w: host %q", ErrDuplicate, s.HostName)
	}
	db.records[s.HostName] = &ResourceRecord{
		Static:  s,
		Dynamic: ResourceDynamic{AvailableMemory: s.TotalMemory},
	}
	return nil
}

// Remove deletes a host entirely ("whenever a resource is added or removed
// from the VDCE").
func (db *ResourcePerfDB) Remove(host string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.records[host]; !ok {
		return fmt.Errorf("%w: host %q", ErrNotFound, host)
	}
	delete(db.records, host)
	return nil
}

// UpdateDynamic stores a new load/memory measurement for host.
func (db *ResourcePerfDB) UpdateDynamic(host string, load float64, availMem int64, at time.Time) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.records[host]
	if !ok {
		return fmt.Errorf("%w: host %q", ErrNotFound, host)
	}
	r.Dynamic.Load = load
	r.Dynamic.AvailableMemory = availMem
	r.Dynamic.UpdatedAt = at
	return nil
}

// SetDown marks a host down (failure detected) or up (recovered).
func (db *ResourcePerfDB) SetDown(host string, down bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.records[host]
	if !ok {
		return fmt.Errorf("%w: host %q", ErrNotFound, host)
	}
	r.Dynamic.Down = down
	return nil
}

// Get returns a copy of the record for host.
func (db *ResourcePerfDB) Get(host string) (ResourceRecord, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.records[host]
	if !ok {
		return ResourceRecord{}, fmt.Errorf("%w: host %q", ErrNotFound, host)
	}
	return *r, nil
}

// List returns all records sorted by host name.
func (db *ResourcePerfDB) List() []ResourceRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]ResourceRecord, 0, len(db.records))
	for _, r := range db.records {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Static.HostName < out[j].Static.HostName })
	return out
}

// UpHosts returns the names of hosts not marked down, sorted.
func (db *ResourcePerfDB) UpHosts() []string {
	var out []string
	for _, r := range db.List() {
		if !r.Dynamic.Down {
			out = append(out, r.Static.HostName)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Task-performance database
// ---------------------------------------------------------------------------

// ExecutionSample is one measured run of a task, appended after application
// execution completes ("the newly measured execution time of each
// application task is stored in the task-performance database").
type ExecutionSample struct {
	Host    string        `json:"host"`
	Elapsed time.Duration `json:"elapsed"`
	At      time.Time     `json:"at"`
}

// TaskRecord holds a task implementation's performance characteristics:
// computation size (base time), communication size, required memory, the
// per-host computing-power weights obtained from trial runs, and the
// history of measured executions.
type TaskRecord struct {
	Function  string             `json:"function"`
	BaseTime  float64            `json:"baseTime"` // seconds on base processor, unit input
	MemReq    int64              `json:"memReq"`
	CommBytes int64              `json:"commBytes"`
	Weights   map[string]float64 `json:"weights,omitempty"` // host -> weight vs base
	History   []ExecutionSample  `json:"history,omitempty"`

	window []ExecutionSample // History's backing array once full: 2× the cap
}

// TaskPerfDB is the task-performance database.
type TaskPerfDB struct {
	mu      sync.RWMutex
	records map[string]*TaskRecord
	maxHist int
}

// NewTaskPerfDB returns an empty task-performance database keeping at most
// maxHistory samples per task (0 means a sensible default).
func NewTaskPerfDB(maxHistory int) *TaskPerfDB {
	if maxHistory <= 0 {
		maxHistory = 256
	}
	return &TaskPerfDB{records: make(map[string]*TaskRecord), maxHist: maxHistory}
}

// Put installs or replaces a task record (weights map is copied).
func (db *TaskPerfDB) Put(r TaskRecord) error {
	if r.Function == "" {
		return fmt.Errorf("%w: empty function", ErrInvalidRecord)
	}
	cp := r
	cp.Weights = make(map[string]float64, len(r.Weights))
	for k, v := range r.Weights {
		cp.Weights[k] = v
	}
	cp.History, cp.window = append([]ExecutionSample(nil), r.History...), nil
	db.mu.Lock()
	defer db.mu.Unlock()
	db.records[r.Function] = &cp
	return nil
}

// Get returns a copy of the record for function.
func (db *TaskPerfDB) Get(function string) (TaskRecord, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.records[function]
	if !ok {
		return TaskRecord{}, fmt.Errorf("%w: task %q", ErrNotFound, function)
	}
	cp := *r
	cp.Weights = make(map[string]float64, len(r.Weights))
	for k, v := range r.Weights {
		cp.Weights[k] = v
	}
	cp.History, cp.window = append([]ExecutionSample(nil), r.History...), nil
	return cp, nil
}

// SetWeight records the computing-power weight of host for function.
func (db *TaskPerfDB) SetWeight(function, host string, weight float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.records[function]
	if !ok {
		return fmt.Errorf("%w: task %q", ErrNotFound, function)
	}
	if r.Weights == nil {
		r.Weights = make(map[string]float64)
	}
	r.Weights[host] = weight
	return nil
}

// Weight returns the computing-power weight of host for function; ok
// reports whether a trial-run weight exists.
func (db *TaskPerfDB) Weight(function, host string) (float64, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.records[function]
	if !ok || r.Weights == nil {
		return 0, false
	}
	w, ok := r.Weights[host]
	return w, ok
}

// RecordExecution appends a measured sample, keeping the last maxHistory.
// A full history is a window sliding over an array of twice the cap: when
// it reaches the array's end, its samples move to the front, so after the
// first fill recording allocates nothing.
func (db *TaskPerfDB) RecordExecution(function string, s ExecutionSample) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.records[function]
	if !ok {
		return fmt.Errorf("%w: task %q", ErrNotFound, function)
	}
	h := r.History
	if len(h) >= db.maxHist {
		h = h[len(h)-db.maxHist+1:]
	}
	if len(h) == cap(h) && len(h) == db.maxHist-1 {
		if cap(r.window) < 2*db.maxHist {
			r.window = make([]ExecutionSample, 2*db.maxHist)
		}
		h = r.window[:copy(r.window, h)]
	}
	r.History = append(h, s)
	return nil
}

// Functions returns all known function names, sorted.
func (db *TaskPerfDB) Functions() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.records))
	for f := range db.records {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Task-constraints database
// ---------------------------------------------------------------------------

// TaskConstraintsDB maps each task function to the hosts that hold its
// executable and the absolute path there ("Due to specific library
// requirements, some task executables may reside only on some of the
// hosts").
type TaskConstraintsDB struct {
	mu    sync.RWMutex
	paths map[string]map[string]string // function -> host -> executable path
}

// NewTaskConstraintsDB returns an empty constraints database.
func NewTaskConstraintsDB() *TaskConstraintsDB {
	return &TaskConstraintsDB{paths: make(map[string]map[string]string)}
}

// SetLocation records that function's executable lives at path on host.
func (db *TaskConstraintsDB) SetLocation(function, host, path string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.paths[function] == nil {
		db.paths[function] = make(map[string]string)
	}
	db.paths[function][host] = path
}

// CanRun reports whether host may execute function (true when the function
// is unconstrained).
func (db *TaskConstraintsDB) CanRun(function, host string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	m, ok := db.paths[function]
	if !ok {
		return true
	}
	_, ok = m[host]
	return ok
}

// ---------------------------------------------------------------------------
// Aggregate repository with JSON persistence
// ---------------------------------------------------------------------------

// Repository bundles the four site databases plus the stored-application
// shelf ("the user may store the application flow graph for future use").
type Repository struct {
	Users       *UserAccountsDB
	Resources   *ResourcePerfDB
	Tasks       *TaskPerfDB
	Constraints *TaskConstraintsDB
	Apps        *AppStore
}

// New returns a repository with all databases empty.
func New() *Repository {
	return &Repository{
		Users:       NewUserAccountsDB(),
		Resources:   NewResourcePerfDB(),
		Tasks:       NewTaskPerfDB(0),
		Constraints: NewTaskConstraintsDB(),
		Apps:        NewAppStore(),
	}
}

type wireRepo struct {
	Users       []UserAccount                `json:"users"`
	Resources   []ResourceRecord             `json:"resources"`
	Tasks       []TaskRecord                 `json:"tasks"`
	Constraints map[string]map[string]string `json:"constraints"`
	Apps        []StoredApp                  `json:"apps,omitempty"`
}

// MarshalJSON serialises the full repository deterministically.
func (r *Repository) MarshalJSON() ([]byte, error) {
	w := wireRepo{
		Users:     r.Users.snapshot(),
		Resources: r.Resources.List(),
	}
	for _, f := range r.Tasks.Functions() {
		rec, err := r.Tasks.Get(f)
		if err != nil {
			return nil, err
		}
		w.Tasks = append(w.Tasks, rec)
	}
	r.Constraints.mu.RLock()
	w.Constraints = make(map[string]map[string]string, len(r.Constraints.paths))
	for f, m := range r.Constraints.paths {
		cp := make(map[string]string, len(m))
		for h, p := range m {
			cp[h] = p
		}
		w.Constraints[f] = cp
	}
	r.Constraints.mu.RUnlock()
	r.Apps.mu.RLock()
	for _, app := range r.Apps.apps {
		w.Apps = append(w.Apps, app)
	}
	r.Apps.mu.RUnlock()
	sort.Slice(w.Apps, func(i, j int) bool {
		if w.Apps[i].Owner != w.Apps[j].Owner {
			return w.Apps[i].Owner < w.Apps[j].Owner
		}
		return w.Apps[i].Name < w.Apps[j].Name
	})
	return json.Marshal(w)
}

// UnmarshalJSON restores a repository serialised by MarshalJSON.
func (r *Repository) UnmarshalJSON(data []byte) error {
	var w wireRepo
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("repository: decode: %w", err)
	}
	fresh := New()
	for _, a := range w.Users {
		if _, err := fresh.Users.Add(a); err != nil {
			return err
		}
	}
	for _, rec := range w.Resources {
		if err := fresh.Resources.Register(rec.Static); err != nil {
			return err
		}
		d := rec.Dynamic
		if err := fresh.Resources.UpdateDynamic(rec.Static.HostName, d.Load, d.AvailableMemory, d.UpdatedAt); err != nil {
			return err
		}
		if d.Down {
			if err := fresh.Resources.SetDown(rec.Static.HostName, true); err != nil {
				return err
			}
		}
	}
	for _, tr := range w.Tasks {
		if err := fresh.Tasks.Put(tr); err != nil {
			return err
		}
	}
	//vdce:ignore maporder SetLocation writes each (function, host) key exactly once; call order commutes
	for f, m := range w.Constraints {
		for h, p := range m { //vdce:ignore maporder same: one keyed write per (function, host) pair
			fresh.Constraints.SetLocation(f, h, p)
		}
	}
	for _, app := range w.Apps {
		if err := fresh.Apps.Save(app.Owner, app.Name, app.AFG, app.SavedAt); err != nil {
			return err
		}
	}
	*r = *fresh
	return nil
}
