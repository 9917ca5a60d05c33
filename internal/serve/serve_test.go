package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jet"
)

func smallJet() core.Config {
	return core.Config{Nx: 64, Nr: 24, Steps: 5}
}

// soloRun executes cfg outside the service — the cold reference the
// cache must reproduce bitwise.
func soloRun(t *testing.T, cfg core.Config) *core.Result {
	t.Helper()
	run, err := core.NewRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameMomentum(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestCachedResultBitwiseIdentical is the acceptance criterion: a
// config-hash hit returns physics bitwise-identical to a cold run of
// the same config — including a cold run outside the service, and a
// hit reached through an alias spelling of the configuration.
func TestCachedResultBitwiseIdentical(t *testing.T) {
	s := New(Options{Slots: 2})
	defer s.Close()

	cfg := smallJet()
	cold, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first submission reported cached")
	}
	hit, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("second submission missed the cache")
	}
	if hit.Key != cold.Key {
		t.Fatalf("keys differ: %s vs %s", hit.Key, cold.Key)
	}
	if !sameMomentum(hit.Result.Momentum, cold.Result.Momentum) {
		t.Fatal("cached momentum differs from the cold run")
	}
	if hit.Result.Dt != cold.Result.Dt || hit.Result.Steps != cold.Result.Steps || hit.Result.Diag != cold.Result.Diag {
		t.Fatalf("cached scalars differ: %+v vs %+v", hit.Result, cold.Result)
	}

	solo := soloRun(t, cfg)
	if !sameMomentum(hit.Result.Momentum, solo.Momentum) {
		t.Fatal("cached momentum differs from a solo run outside the service")
	}

	// An alias spelling — explicit backend name and spelled-out
	// defaults instead of the zero values — must land on the same line.
	alias := core.Config{Backend: "serial", Scenario: "jet", Nx: 64, Nr: 24, Steps: 5, Procs: 3}
	rep, err := s.Submit(alias)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cached || rep.Key != cold.Key {
		t.Fatalf("alias spelling missed the cache: cached=%v key=%s want %s", rep.Cached, rep.Key, cold.Key)
	}
}

// TestReplyIsPrivateCopy: mutating a reply must not corrupt the cache.
func TestReplyIsPrivateCopy(t *testing.T) {
	s := New(Options{Slots: 1})
	defer s.Close()
	cfg := smallJet()
	first, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.Result.Momentum[0][0] = 12345
	second, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Result.Momentum[0][0] == 12345 {
		t.Fatal("reply mutation reached the cache")
	}
}

// TestSingleFlight: concurrent duplicates of one config coalesce onto
// one cold run.
func TestSingleFlight(t *testing.T) {
	s := New(Options{Slots: 2})
	defer s.Close()
	const dup = 8
	var wg sync.WaitGroup
	replies := make([]*Reply, dup)
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := s.Submit(smallJet())
			if err != nil {
				t.Error(err)
				return
			}
			replies[i] = rep
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.Completed != 1 {
		t.Fatalf("%d cold runs for %d duplicate submissions", st.Completed, dup)
	}
	if st.CacheHits != dup-1 {
		t.Fatalf("%d hits, want %d", st.CacheHits, dup-1)
	}
	for i := 1; i < dup; i++ {
		if !sameMomentum(replies[i].Result.Momentum, replies[0].Result.Momentum) {
			t.Fatal("coalesced replies disagree")
		}
	}
}

// TestChecksumIdentity: every way a reply is served — the cold run, a
// duplicate coalesced onto it in flight, a hit, an alias-spelled hit,
// and a Batch hit (what POST /batch serves) — carries the checksum of
// the field it names, equal to a solo run's, also after a caller
// mutated an earlier reply.
func TestChecksumIdentity(t *testing.T) {
	cfg := smallJet()
	want := MomentumChecksum(soloRun(t, cfg).Momentum)
	s := New(Options{Slots: 1})
	defer s.Close()
	check := func(what string, rep *Reply, cached bool) {
		t.Helper()
		if rep.Cached != cached {
			t.Fatalf("%s: cached=%v, want %v", what, rep.Cached, cached)
		}
		if got := MomentumChecksum(rep.Result.Momentum); rep.Checksum != got || got != want {
			t.Fatalf("%s: Checksum %s, field hashes to %s, solo run %s", what, rep.Checksum, got, want)
		}
	}

	// Hold the only slot so the cold run queues, and its duplicate
	// finds the cache line still in flight.
	s.sem.acquire(1)
	replies := make([]*Reply, 2)
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := s.Submit(cfg)
			if err != nil {
				t.Error(err)
			}
			replies[i] = rep
		}()
	}
	submit(0)
	waitFor(t, func() bool { return s.Stats().Queued == 1 })
	submit(1)
	// Give the duplicate time to reach the in-flight line. Nothing
	// observable marks that moment; if it comes late, the duplicate is
	// a plain hit and every assertion below still holds.
	time.Sleep(20 * time.Millisecond)
	s.sem.release(1)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if replies[0].Cached {
		replies[0], replies[1] = replies[1], replies[0]
	}
	check("cold", replies[0], false)
	check("coalesced", replies[1], true)

	replies[0].Result.Momentum[0][0] = 12345
	replies[1].Result.Momentum[1][1] = -1
	hit, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("hit", hit, true)
	if got := ResultOf("", &Reply{Result: hit.Result, Checksum: "carried"}, nil).MomentumSHA256; got != "carried" {
		t.Fatalf("ResultOf reported %s instead of the reply's Checksum: it hashed the field again", got)
	}
	hit.Result.Momentum[2][2] = 0
	alias, err := s.Submit(core.Config{Backend: "serial", Scenario: "jet", Nx: 64, Nr: 24, Steps: 5, Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	check("alias hit", alias, true)
	for _, res := range s.Batch([]Job{{ID: "b", Nx: 64, Nr: 24, Steps: 5}}) {
		if !res.OK || !res.Cached || res.MomentumSHA256 != want {
			t.Fatalf("batch hit: %+v, want checksum %s", res, want)
		}
	}
}

// TestHitBytes pins the cost of a wire hit: the shared path plus
// ResultOf allocates the same few bytes whatever the grid, because it
// neither copies nor hashes the field. (Submit's private copy of the
// 256×96 field alone is ~200 KB.)
func TestHitBytes(t *testing.T) {
	s := New(Options{Slots: 1})
	defer s.Close()
	const hits = 200
	var sink JobResult
	perHit := func(cfg core.Config) uint64 {
		if _, err := s.serve(cfg); err != nil {
			t.Fatal(err)
		}
		best := uint64(math.MaxUint64)
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < hits; i++ {
				rep, err := s.serve(cfg)
				sink = ResultOf("hit", rep, err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, (after.TotalAlloc-before.TotalAlloc)/hits)
		}
		if !sink.Cached {
			t.Fatalf("%dx%d: not served from the cache", cfg.Nx, cfg.Nr)
		}
		return best
	}
	small := perHit(core.Config{Nx: 64, Nr: 24, Steps: 2})
	large := perHit(core.Config{Nx: 256, Nr: 96, Steps: 2})
	t.Logf("bytes per wire hit: %d at 64x24, %d at 256x96", small, large)
	if small != large {
		t.Errorf("a wire hit allocates %d B at 64x24 but %d B at 256x96: it scales with the field", small, large)
	}
	if large > 4<<10 {
		t.Errorf("a wire hit allocates %d B, want at most 4 KiB", large)
	}
}

// mixedJobs builds the smoke/bench workload: a parameter sweep over
// scenarios, backends, Reynolds number, excitation, grid, and
// tolerance, with deliberate duplicates.
func mixedJobs(n int) []Job {
	eps0 := 0.0
	unique := []Job{
		{Scenario: "jet", Backend: "serial", Nx: 64, Nr: 24, Steps: 4},
		{Scenario: "jet", Backend: "shm", Procs: 2, Nx: 64, Nr: 24, Steps: 4, Fresh: true},
		{Scenario: "jet", Backend: "mp:v5", Procs: 2, Nx: 64, Nr: 24, Steps: 4, Fresh: true},
		{Scenario: "jet", Backend: "mp2d", Px: 2, Pr: 2, Procs: 4, Nx: 64, Nr: 24, Steps: 4, Fresh: true},
		{Scenario: "jet", Backend: "hybrid", Procs: 2, Workers: 1, Nx: 64, Nr: 24, Steps: 4, Fresh: true},
		{Scenario: "cavity", Backend: "serial", Nx: 33, Nr: 32, Steps: 4},
		{Scenario: "cavity", Backend: "mp:v5", Procs: 2, Nx: 33, Nr: 32, Steps: 4, Fresh: true},
		{Scenario: "channel", Backend: "serial", Nx: 64, Nr: 16, Steps: 4},
		{Scenario: "channel", Backend: "shm", Procs: 2, Nx: 64, Nr: 16, Steps: 4, Fresh: true},
		{Scenario: "jet", Backend: "serial", Nx: 64, Nr: 24, Steps: 4, Reynolds: 500},
		{Scenario: "jet", Backend: "serial", Nx: 64, Nr: 24, Steps: 4, Reynolds: 2000},
		{Scenario: "jet", Backend: "serial", Nx: 64, Nr: 24, Steps: 4, Eps: &eps0},
		{Scenario: "jet", Backend: "serial", Nx: 96, Nr: 32, Steps: 3},
		{Scenario: "jet", Backend: "serial", Nx: 64, Nr: 24, Steps: 200, Tol: 1e-1, ReduceEvery: 5},
		{Scenario: "jet", Backend: "serial", Nx: 64, Nr: 24, Steps: 4, Euler: true},
		{Scenario: "jet", Backend: "mp:v5", Procs: 2, Nx: 64, Nr: 24, Steps: 4, HaloDepth: 2},
	}
	jobs := make([]Job, 0, n)
	for len(jobs) < n {
		j := unique[len(jobs)%len(unique)]
		j.ID = fmt.Sprintf("job-%d", len(jobs))
		jobs = append(jobs, j)
	}
	return jobs
}

// TestServiceSmoke is the CI service smoke: ~50 mixed requests with
// duplicates submitted concurrently must all complete, with a nonzero
// cache hit-rate, consistent counters, and (under -race) a clean run.
func TestServiceSmoke(t *testing.T) {
	s := New(Options{Slots: 4})
	defer s.Close()
	jobs := mixedJobs(50)
	results := s.Batch(jobs)

	for i, res := range results {
		if !res.OK {
			t.Fatalf("job %d (%s) failed: %s", i, jobs[i].ID, res.Error)
		}
		if res.MomentumSHA256 == "" {
			t.Fatalf("job %d: no momentum checksum", i)
		}
	}
	st := s.Stats()
	if got := st.Completed + st.CacheHits; got != uint64(len(jobs)) {
		t.Fatalf("served %d jobs, want %d (stats: %v)", got, len(jobs), st)
	}
	if st.CacheHits == 0 {
		t.Fatalf("duplicate-laden workload produced no cache hits: %v", st)
	}
	if st.Failures != 0 || st.Rejected != 0 {
		t.Fatalf("smoke shed or failed jobs: %v", st)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("occupancy nonzero after drain: %v", st)
	}
	// Identical keys must carry identical physics fingerprints.
	byKey := map[string]string{}
	for _, res := range results {
		if prev, ok := byKey[res.Key]; ok && prev != res.MomentumSHA256 {
			t.Fatalf("key %s served two different fields", res.Key)
		}
		byKey[res.Key] = res.MomentumSHA256
	}
	if st.SharedProfiles == 0 || st.SharedProfiles >= len(jobs) {
		t.Fatalf("shared profiles not shared: %d for %d jobs", st.SharedProfiles, len(jobs))
	}
}

// TestAdmissionControl: with one slot and a one-deep queue, a third
// concurrent cold job is shed with ErrBusy while the first two are
// served.
func TestAdmissionControl(t *testing.T) {
	s := New(Options{Slots: 1, MaxQueue: 1})
	defer s.Close()

	long := core.Config{Nx: 96, Nr: 40, Steps: 60}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(long); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, func() bool { st := s.Stats(); return st.Running == 1 })

	second := core.Config{Nx: 96, Nr: 40, Steps: 61}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(second); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, func() bool { st := s.Stats(); return st.Queued == 1 })

	if _, err := s.Submit(core.Config{Nx: 96, Nr: 40, Steps: 62}); !errors.Is(err, ErrBusy) {
		t.Fatalf("third job: err = %v, want ErrBusy", err)
	}
	wg.Wait()
	if st := s.Stats(); st.Rejected != 1 || st.Completed != 2 {
		t.Fatalf("stats after shed: %v", st)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitAfterClose: the scheduler refuses new work once closed.
func TestSubmitAfterClose(t *testing.T) {
	s := New(Options{Slots: 1})
	s.Close()
	if _, err := s.Submit(smallJet()); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestBadConfigNotCached: a config the registry rejects fails every
// time (no error caching) and a diverging config's error reaches every
// coalesced waiter.
func TestBadConfigFails(t *testing.T) {
	s := New(Options{Slots: 1})
	defer s.Close()
	bad := core.Config{Nx: 64, Nr: 24, Steps: 2, Backend: "nonesuch"}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(bad); err == nil {
			t.Fatal("unknown backend accepted")
		}
	}
	if st := s.Stats(); st.Completed != 0 || st.CacheHits != 0 {
		t.Fatalf("failed submissions counted as served: %v", st)
	}
}

// TestKeyAliasing pins the canonicalization equivalences the cache
// keys on — and a pair that must NOT alias.
func TestKeyAliasing(t *testing.T) {
	// Each pair must produce one key.
	same := [][2]core.Config{
		{{Procs: 4, Nx: 64, Nr: 24, Steps: 5}, // empty Backend is serial: one slab whatever the width
			{Backend: "serial", Nx: 64, Nr: 24, Steps: 5}},
		{{Scenario: "cavity", Euler: true, Nx: 33, Nr: 32, Steps: 5},
			{Scenario: "cavity", Nx: 33, Nr: 32, Steps: 5}},
		{{Backend: "mp:v5", Procs: 2, HaloDepth: 1, Nx: 64, Nr: 24, Steps: 5},
			{Backend: "mp:v5", Procs: 2, FreshHalos: true, Nx: 64, Nr: 24, Steps: 5}},
		{{Nx: 64, Nr: 24, Steps: 5},
			{Scenario: "jet", Backend: "serial", Nx: 64, Nr: 24, Steps: 5, Balance: "uniform"}},
	}
	for i, pair := range same {
		a, err := Key(pair[0])
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		b, err := Key(pair[1])
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		if a != b {
			t.Errorf("pair %d: keys differ\n  %+v\n  %+v", i, pair[0], pair[1])
		}
	}
	differ := [][2]core.Config{
		{{Nx: 64, Nr: 24, Steps: 5}, {Nx: 64, Nr: 24, Steps: 6}},
		{{Nx: 64, Nr: 24, Steps: 5}, {Nx: 64, Nr: 24, Steps: 5, Euler: true}},
		{{Nx: 64, Nr: 24, Steps: 5, StopTol: 1e-4}, {Nx: 64, Nr: 24, Steps: 5, StopTol: 2e-4}},
		{{Nx: 64, Nr: 24, Steps: 5, Backend: "mp:v5", Procs: 2}, {Nx: 64, Nr: 24, Steps: 5, Backend: "mp:v5", Procs: 2, FreshHalos: true}},
	}
	for i, pair := range differ {
		a, _ := Key(pair[0])
		b, _ := Key(pair[1])
		if a == b {
			t.Errorf("distinct pair %d produced one key", i)
		}
	}
	// Contradictions canonicalize to errors, not keys.
	if _, err := Key(core.Config{Nx: 64, Nr: 24, FreshHalos: true, HaloDepth: 2}); err == nil {
		t.Error("contradictory halo spec produced a key")
	}
}

// keyPerturbed and keyFolded are the decision TestKeyCoversEveryField
// demands for every field of core.Config and (as "Jet.<Field>") of
// jet.Config: a perturbed value that must change the key, or a
// respelling Canonical folds away, which must not. A field in neither
// fails the test, so growing either struct forces the question "is this
// run identity?" to be answered where the answer is checked.
var keyPerturbed = map[string]any{
	"Scenario":    "channel",
	"Nx":          65,
	"Nr":          25,
	"Steps":       9,
	"Backend":     "hybrid",
	"Procs":       4,
	"Workers":     2,
	"Px":          2,
	"Pr":          2,
	"Balance":     "flops",
	"FreshHalos":  true,
	"HaloDepth":   2,
	"ReduceGroup": 2,
	"StopTol":     1e-4,
	"ReduceEvery": 5,
	"SteadyTol":   1e-3,

	"Jet.MachCenter": 1.6,
	"Jet.TempRatio":  0.6,
	"Jet.Theta":      0.2,
	"Jet.Strouhal":   0.2,
	"Jet.Eps":        2e-4,
	"Jet.UCoflow":    0.2,
	"Jet.Reynolds":   500.0,
	"Jet.Viscous":    false,
}

// keyFolded respellings run on their own base: Euler folds only where
// the scenario pins the physics (on the jet, Euler against a viscous
// Jet is an error, not a fold).
var keyFolded = map[string]struct {
	base    core.Config
	respell func(*core.Config)
}{
	// Recomputed from the resolved Jet.Viscous.
	"Euler": {core.Config{Scenario: "cavity", Nx: 33, Nr: 32, Steps: 8},
		func(c *core.Config) { c.Euler = !c.Euler }},
	// The pointer is not identity; the values it points to are.
	"Jet": {keyBase, func(c *core.Config) { jc := *c.Jet; c.Jet = &jc }},
}

// keyBase is the run every perturbation of TestKeyCoversEveryField
// starts from.
var keyBase = core.Config{Nx: 64, Nr: 24, Steps: 8, Backend: "mp2d", Procs: 2}

// TestKeyCoversEveryField walks core.Config and jet.Config by
// reflection: perturbing each field on a canonical base must change
// serve.Key, unless the field is recorded as folded by Canonical — and
// then its respelling must not change it. A perturbation or respelling
// Canonical rejects fails either way: an error is not a key.
func TestKeyCoversEveryField(t *testing.T) {
	// moved reports whether set changes the key of the canonical base.
	moved := func(name string, spelled core.Config, set func(*core.Config)) bool {
		t.Helper()
		base, err := spelled.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		c := base
		jc := *base.Jet
		c.Jet = &jc
		want := keyOf(c)
		set(&c)
		got, err := Key(c)
		if err != nil {
			t.Errorf("%s: Canonical rejected the changed config: %v", name, err)
		}
		return got != want
	}
	check := func(name string, set func(c *core.Config, v reflect.Value)) {
		v, perturbed := keyPerturbed[name]
		fold, folded := keyFolded[name]
		switch {
		case perturbed == folded:
			t.Errorf("field %s needs exactly one decision: a keyPerturbed value (run identity) or a keyFolded respelling (folded by Canonical)", name)
		case folded && moved(name, fold.base, fold.respell):
			t.Errorf("%s is recorded as folded but its respelling moves the key", name)
		case perturbed && !moved(name, keyBase, func(c *core.Config) { set(c, reflect.ValueOf(v)) }):
			t.Errorf("configs differing only in %s share a cache key", name)
		}
	}
	ct := reflect.TypeOf(core.Config{})
	for i := 0; i < ct.NumField(); i++ {
		check(ct.Field(i).Name, func(c *core.Config, v reflect.Value) {
			reflect.ValueOf(c).Elem().Field(i).Set(v)
		})
	}
	jt := reflect.TypeOf(jet.Config{})
	for i := 0; i < jt.NumField(); i++ {
		check("Jet."+jt.Field(i).Name, func(c *core.Config, v reflect.Value) {
			reflect.ValueOf(c.Jet).Elem().Field(i).Set(v)
		})
	}
	if n := ct.NumField() + jt.NumField(); len(keyPerturbed)+len(keyFolded) != n {
		t.Errorf("%d decisions for %d fields: remove the stale ones", len(keyPerturbed)+len(keyFolded), n)
	}
}

// TestJobConfig pins the wire → core.Config mapping, including the
// sweep overrides.
func TestJobConfig(t *testing.T) {
	eps := 0.0
	j := Job{Scenario: "jet", Backend: "mp:v5", Procs: 2, Nx: 64, Nr: 24, Steps: 5,
		Reynolds: 500, Eps: &eps, Fresh: true, Tol: 1e-4, ReduceEvery: 5}
	c := j.Config()
	if c.Jet == nil || c.Jet.Reynolds != 500 || c.Jet.Eps != 0 {
		t.Fatalf("sweep overrides lost: %+v", c.Jet)
	}
	if !c.FreshHalos || c.StopTol != 1e-4 || c.ReduceEvery != 5 {
		t.Fatalf("flags lost: %+v", c)
	}
	plain := Job{Nx: 64, Nr: 24, Steps: 5}.Config()
	if plain.Jet != nil {
		t.Fatal("no overrides must leave Jet nil (scenario default physics)")
	}
}

// TestJobCoversConfig keeps the wire struct in step with core.Config by
// reflection: every Job field except the client tag and the two physics
// overrides must arrive intact in exactly one Config field, and together
// they must reach every Config field except Jet (which Reynolds and Eps
// build). A Config field the wire cannot spell, or a Job field
// Job.Config drops, fails here.
func TestJobCoversConfig(t *testing.T) {
	reached := map[string]string{} // Config field → the Job field that sets it
	jt := reflect.TypeOf(Job{})
	ct := reflect.TypeOf(core.Config{})
	for i := 0; i < jt.NumField(); i++ {
		name := jt.Field(i).Name
		if name == "ID" || name == "Reynolds" || name == "Eps" {
			continue
		}
		var job Job
		f := reflect.ValueOf(&job).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(100 + i))
		case reflect.Float64:
			f.SetFloat(0.5 + float64(i))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString(fmt.Sprintf("value-%d", i))
		default:
			t.Fatalf("Job.%s has kind %s: teach this test to set it", name, f.Kind())
		}
		cfg := reflect.ValueOf(job.Config())
		var hit []string
		for k := 0; k < ct.NumField(); k++ {
			if cv := cfg.Field(k); !cv.IsZero() {
				hit = append(hit, ct.Field(k).Name)
				if cv.Kind() != f.Kind() || !cv.Equal(f) {
					t.Errorf("Job.%s = %v arrived as Config.%s = %v", name, f, ct.Field(k).Name, cv)
				}
			}
		}
		if len(hit) != 1 {
			t.Errorf("Job.%s set Config fields %v, want exactly one", name, hit)
			continue
		}
		if prev, dup := reached[hit[0]]; dup {
			t.Errorf("Job.%s and Job.%s both set Config.%s", prev, name, hit[0])
		}
		reached[hit[0]] = name
	}
	for k := 0; k < ct.NumField(); k++ {
		if name := ct.Field(k).Name; name != "Jet" && reached[name] == "" {
			t.Errorf("no Job field reaches Config.%s: the wire cannot spell it", name)
		}
	}
}

// TestAdmissionCountsRankWorkers: a hybrid job computes on ranks ×
// per-rank workers — every hybrid row, whatever its version — and
// admission counts every one of them, the host-default pool included.
func TestAdmissionCountsRankWorkers(t *testing.T) {
	s := New(Options{Slots: 64})
	perRank := max(1, runtime.NumCPU()/2) // the backend's host default for 2 ranks
	for _, name := range []string{"hybrid", "hybrid:v6", "hybrid:v7"} {
		for _, c := range []struct{ workers, want int }{{3, 6}, {0, 2 * perRank}} {
			cc, err := core.Config{Backend: name, Procs: 2, Workers: c.workers}.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.widthOf(cc)
			if err != nil {
				t.Fatal(err)
			}
			if w != c.want {
				t.Errorf("%s, 2 ranks, Workers %d: admitted at width %d, want %d", name, c.workers, w, c.want)
			}
		}
	}
}

// TestEqualKeysEqualFields is the randomized cache-soundness property:
// over seed-drawn spellings on a small grid, configs with equal keys
// produce bitwise-equal momentum fields — equivalently, runs whose
// fields differ never share a key.
func TestEqualKeysEqualFields(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pick := func(n int) int { return rng.Intn(n) }
	backends := []string{"", "serial", "shm", "mp:v5", "mp:v6", "mp2d", "mp2d:v6", "hybrid", "hybrid:v6"}
	byKey := map[string]string{}
	ran, shared := 0, 0
	for draw := 0; draw < 300; draw++ {
		c := core.Config{Nx: 48, Nr: 20, Steps: 3,
			Backend: backends[pick(len(backends))], Procs: pick(3),
			FreshHalos: pick(2) == 0, HaloDepth: pick(3),
			ReduceGroup: pick(2), Euler: pick(4) == 0}
		if pick(2) == 0 {
			c.Scenario = "jet"
		}
		if pick(3) == 0 {
			c.Balance = "uniform"
		}
		if pick(4) == 0 {
			jc := jet.Paper()
			jc.Reynolds = []float64{500, 1.2e6}[pick(2)]
			c.Jet = &jc
		}
		key, err := Key(c)
		if err != nil {
			continue // a contradiction has no key and no run
		}
		run, err := core.NewRun(c)
		if err != nil {
			continue // the registry rejected the spelling
		}
		res, err := run.Execute()
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		ran++
		sum := MomentumChecksum(res.Momentum)
		if prev, ok := byKey[key]; ok {
			shared++
			if prev != sum {
				t.Fatalf("key %s names two different fields; second spelling %+v", key, c)
			}
		}
		byKey[key] = sum
	}
	t.Logf("%d runs, %d key collisions", ran, shared)
	if ran < 100 || shared < 20 {
		t.Fatalf("property under-exercised: %d runs, %d key collisions", ran, shared)
	}
}
