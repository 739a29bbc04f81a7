package repository

import (
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestUserAddAndAuthenticate(t *testing.T) {
	db := NewUserAccountsDB()
	a, err := db.Add(UserAccount{UserName: "haluk", Password: "pw", Priority: 5, AccessDomain: "wide-area"})
	if err != nil {
		t.Fatal(err)
	}
	if a.UserID != 1 {
		t.Fatalf("assigned id = %d", a.UserID)
	}
	got, err := db.Authenticate("haluk", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if got.Priority != 5 || got.AccessDomain != "wide-area" {
		t.Fatalf("got %+v", got)
	}
}

func TestUserAuthenticateFailures(t *testing.T) {
	db := NewUserAccountsDB()
	db.Add(UserAccount{UserName: "u", Password: "right"})
	if _, err := db.Authenticate("u", "wrong"); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Authenticate("nobody", "x"); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestUserDuplicateAndIDSequence(t *testing.T) {
	db := NewUserAccountsDB()
	db.Add(UserAccount{UserName: "a"})
	if _, err := db.Add(UserAccount{UserName: "a"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
	b, _ := db.Add(UserAccount{UserName: "b", UserID: 10})
	if b.UserID != 10 {
		t.Fatalf("explicit id lost: %d", b.UserID)
	}
	c, _ := db.Add(UserAccount{UserName: "c"})
	if c.UserID != 11 {
		t.Fatalf("sequence should continue after explicit id: %d", c.UserID)
	}
	if _, err := db.Add(UserAccount{}); !errors.Is(err, ErrInvalidRecord) {
		t.Fatalf("err = %v", err)
	}
}

func TestResourceRegisterAndUpdate(t *testing.T) {
	db := NewResourcePerfDB()
	s := ResourceStatic{HostName: "n1", Site: "syr", Arch: "solaris", TotalMemory: 1 << 26, SpeedFactor: 2}
	if err := db.Register(s); err != nil {
		t.Fatal(err)
	}
	r, err := db.Get("n1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Dynamic.AvailableMemory != 1<<26 {
		t.Fatalf("initial avail mem = %d", r.Dynamic.AvailableMemory)
	}
	now := time.Now()
	if err := db.UpdateDynamic("n1", 0.7, 1<<25, now); err != nil {
		t.Fatal(err)
	}
	r, _ = db.Get("n1")
	if r.Dynamic.Load != 0.7 || r.Dynamic.AvailableMemory != 1<<25 || !r.Dynamic.UpdatedAt.Equal(now) {
		t.Fatalf("dynamic = %+v", r.Dynamic)
	}
	if db.UpdateCount() != 1 {
		t.Fatalf("updates = %d", db.UpdateCount())
	}
}

func TestResourceErrors(t *testing.T) {
	db := NewResourcePerfDB()
	if err := db.Register(ResourceStatic{}); !errors.Is(err, ErrInvalidRecord) {
		t.Fatalf("err = %v", err)
	}
	db.Register(ResourceStatic{HostName: "n1"})
	if err := db.Register(ResourceStatic{HostName: "n1"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
	if err := db.UpdateDynamic("ghost", 0, 0, time.Now()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := db.SetDown("ghost", true); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := db.Remove("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestResourceDownAndRemove(t *testing.T) {
	db := NewResourcePerfDB()
	db.Register(ResourceStatic{HostName: "a"})
	db.Register(ResourceStatic{HostName: "b"})
	db.SetDown("a", true)
	up := db.UpHosts()
	if len(up) != 1 || up[0] != "b" {
		t.Fatalf("up = %v", up)
	}
	db.SetDown("a", false)
	if len(db.UpHosts()) != 2 {
		t.Fatal("host a should be back up")
	}
	if err := db.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestTaskPerfPutGetIsolation(t *testing.T) {
	db := NewTaskPerfDB(0)
	rec := TaskRecord{Function: "matrix.lu", BaseTime: 2.5, MemReq: 1 << 20, Weights: map[string]float64{"h1": 0.5}}
	if err := db.Put(rec); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's map must not affect the stored record.
	rec.Weights["h1"] = 99
	got, err := db.Get("matrix.lu")
	if err != nil {
		t.Fatal(err)
	}
	if got.Weights["h1"] != 0.5 {
		t.Fatal("stored weights aliased caller's map")
	}
	// Mutating the returned map must not affect the store either.
	got.Weights["h1"] = 77
	again, _ := db.Get("matrix.lu")
	if again.Weights["h1"] != 0.5 {
		t.Fatal("returned weights alias store")
	}
}

func TestTaskPerfWeights(t *testing.T) {
	db := NewTaskPerfDB(0)
	db.Put(TaskRecord{Function: "f", BaseTime: 1})
	if _, ok := db.Weight("f", "h1"); ok {
		t.Fatal("weight should be absent")
	}
	if err := db.SetWeight("f", "h1", 0.25); err != nil {
		t.Fatal(err)
	}
	w, ok := db.Weight("f", "h1")
	if !ok || w != 0.25 {
		t.Fatalf("w = %v ok = %v", w, ok)
	}
	if err := db.SetWeight("ghost", "h1", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := db.Weight("ghost", "h1"); ok {
		t.Fatal("ghost weight")
	}
}

func TestTaskPerfHistoryTrim(t *testing.T) {
	db := NewTaskPerfDB(3)
	db.Put(TaskRecord{Function: "f", BaseTime: 1})
	for i := 0; i < 5; i++ {
		if err := db.RecordExecution("f", ExecutionSample{Host: "h", Elapsed: time.Duration(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := db.Get("f")
	if len(got.History) != 3 {
		t.Fatalf("history len = %d", len(got.History))
	}
	if got.History[0].Elapsed != 2 || got.History[2].Elapsed != 4 {
		t.Fatalf("history = %v", got.History)
	}
	if err := db.RecordExecution("ghost", ExecutionSample{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestTaskPerfHistoryWindow records 10×max samples, checking after every
// one that the history is the last max in order, then that recording into
// a full history allocates nothing and that the history round-trips through
// the repository's JSON. It starts from a Put history longer than the cap.
func TestTaskPerfHistoryWindow(t *testing.T) {
	const max = 8
	hosts := []string{"h0", "h1", "h2"}
	sample := func(i int) ExecutionSample {
		return ExecutionSample{Host: hosts[(i%3+3)%3], Elapsed: time.Duration(i)}
	}
	repo := New()
	repo.Tasks = NewTaskPerfDB(max)
	var put []ExecutionSample
	for i := range max + 3 {
		put = append(put, sample(i-max-3))
	}
	if err := repo.Tasks.Put(TaskRecord{Function: "f", BaseTime: 1, History: put}); err != nil {
		t.Fatal(err)
	}
	for i := range 10 * max {
		if err := repo.Tasks.RecordExecution("f", sample(i)); err != nil {
			t.Fatal(err)
		}
		got, _ := repo.Tasks.Get("f")
		for k, s := range got.History {
			if want := sample(i - len(got.History) + 1 + k); len(got.History) != max || s != want {
				t.Fatalf("after sample %d: history %v, want the last %d", i, got.History, max)
			}
		}
	}
	i := 10 * max
	if n := testing.AllocsPerRun(5, func() {
		for range 4 * max {
			repo.Tasks.RecordExecution("f", sample(i))
			i++
		}
	}); n != 0 {
		t.Errorf("%d samples into a full history allocate %v times", 4*max, n)
	}
	data, err := json.Marshal(repo)
	if err != nil {
		t.Fatal(err)
	}
	back := New()
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	want, _ := repo.Tasks.Get("f")
	if got, _ := back.Tasks.Get("f"); !slices.Equal(got.History, want.History) {
		t.Fatalf("history after a round trip %v, want %v", got.History, want.History)
	}
}

func TestTaskPerfValidation(t *testing.T) {
	db := NewTaskPerfDB(0)
	if err := db.Put(TaskRecord{}); !errors.Is(err, ErrInvalidRecord) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestConstraints(t *testing.T) {
	db := NewTaskConstraintsDB()
	// Unconstrained function: anywhere.
	if !db.CanRun("free", "anyhost") {
		t.Fatal("unconstrained function should run anywhere")
	}
	if db.EligibleHosts("free") != nil {
		t.Fatal("unconstrained function should return nil hosts")
	}
	db.SetLocation("fft", "h2", "/opt/vdce/bin/fft")
	db.SetLocation("fft", "h1", "/usr/local/bin/fft")
	if db.CanRun("fft", "h3") {
		t.Fatal("h3 should not run fft")
	}
	if !db.CanRun("fft", "h1") {
		t.Fatal("h1 should run fft")
	}
	hosts := db.EligibleHosts("fft")
	if len(hosts) != 2 || hosts[0] != "h1" || hosts[1] != "h2" {
		t.Fatalf("hosts = %v", hosts)
	}
	p, ok := db.Location("fft", "h2")
	if !ok || p != "/opt/vdce/bin/fft" {
		t.Fatalf("path = %q ok = %v", p, ok)
	}
	if _, ok := db.Location("fft", "h3"); ok {
		t.Fatal("h3 location should be absent")
	}
}

func TestRepositoryJSONRoundTrip(t *testing.T) {
	r := New()
	r.Users.Add(UserAccount{UserName: "u1", Password: "p", Priority: 3, AccessDomain: "local"})
	r.Resources.Register(ResourceStatic{HostName: "n1", Site: "syr", Arch: "sgi", TotalMemory: 1024, SpeedFactor: 1.5})
	r.Resources.UpdateDynamic("n1", 0.4, 512, time.Unix(100, 0).UTC())
	r.Resources.Register(ResourceStatic{HostName: "n2", Site: "rome"})
	r.Resources.SetDown("n2", true)
	r.Tasks.Put(TaskRecord{Function: "matrix.lu", BaseTime: 3, MemReq: 64, CommBytes: 128,
		Weights: map[string]float64{"n1": 0.66}})
	r.Tasks.RecordExecution("matrix.lu", ExecutionSample{Host: "n1", Elapsed: time.Second, At: time.Unix(200, 0).UTC()})
	r.Constraints.SetLocation("matrix.lu", "n1", "/bin/lu")

	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	back := New()
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if _, err := back.Users.Authenticate("u1", "p"); err != nil {
		t.Fatal("user lost in round trip")
	}
	rec, err := back.Resources.Get("n1")
	if err != nil || rec.Dynamic.Load != 0.4 || rec.Static.SpeedFactor != 1.5 {
		t.Fatalf("resource lost: %+v err=%v", rec, err)
	}
	n2, _ := back.Resources.Get("n2")
	if !n2.Dynamic.Down {
		t.Fatal("down flag lost")
	}
	tr, err := back.Tasks.Get("matrix.lu")
	if err != nil || tr.BaseTime != 3 || tr.Weights["n1"] != 0.66 || len(tr.History) != 1 {
		t.Fatalf("task lost: %+v err=%v", tr, err)
	}
	if p, ok := back.Constraints.Location("matrix.lu", "n1"); !ok || p != "/bin/lu" {
		t.Fatal("constraint lost")
	}
}

func TestRepositoryUnmarshalGarbage(t *testing.T) {
	r := New()
	if err := json.Unmarshal([]byte("{bad"), r); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestConcurrentRepositoryAccess(t *testing.T) {
	r := New()
	for i := 0; i < 8; i++ {
		r.Resources.Register(ResourceStatic{HostName: string(rune('a' + i)), TotalMemory: 1 << 20})
	}
	r.Tasks.Put(TaskRecord{Function: "f", BaseTime: 1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			host := string(rune('a' + w))
			for i := 0; i < 100; i++ {
				r.Resources.UpdateDynamic(host, float64(i), int64(i), time.Now())
				r.Resources.Get(host)
				r.Resources.UpHosts()
				r.Tasks.SetWeight("f", host, float64(i))
				r.Tasks.Weight("f", host)
				r.Tasks.RecordExecution("f", ExecutionSample{Host: host})
			}
		}(w)
	}
	wg.Wait()
	if r.Resources.UpdateCount() != 800 {
		t.Fatalf("updates = %d", r.Resources.UpdateCount())
	}
}
