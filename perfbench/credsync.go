package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"lbtrust/internal/core"
	"lbtrust/internal/datalog"
	"lbtrust/internal/dist"
	"lbtrust/internal/store"
)

// batchSize is how many says alice sends before each sync.
const batchSize = 100

// credSync is the credential-sync workload, the paper's Figure 2 over the
// serving API: alice (one node) says batches of notes to bob (another
// node, loopback TCP) under RSA on a durable system, syncs, and bob's
// session must then see the whole batch.
type credSync struct {
	rig
	batches int // batches fully visible at bob
}

func setupCredSync(cfg config) (workload, error) {
	w := &credSync{rig: rig{cfg: cfg, signer: "alice"}}
	if err := w.build(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *credSync) build() error {
	dir, err := w.durableDir("credsync-")
	if err != nil {
		return err
	}
	w.sys, err = core.OpenSystem(dir, core.DurableOptions{
		Transport:     dist.NewTCPNetwork(),
		Fsync:         store.FsyncInterval,
		FsyncInterval: 50 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	var ps []*core.Principal
	for _, name := range []string{"alice", "bob"} {
		nd, err := w.sys.AddNode("node-" + name)
		if err != nil {
			return err
		}
		p, err := w.sys.AddPrincipalOn(name, nd)
		if err != nil {
			return err
		}
		ps = append(ps, p)
	}
	// Keys are established once both principals exist, so each holds
	// the other's public key.
	for _, p := range ps {
		if err := w.sys.EstablishRSA(p.Name()); err != nil {
			return err
		}
	}
	for _, p := range ps {
		if err := p.UseScheme(core.SchemeRSA); err != nil {
			return err
		}
	}
	if err := ps[1].TrustAll(); err != nil {
		return err
	}
	w.reader = ps[1]
	for i := 0; i < batchSize; i++ {
		w.statements = append(w.statements, fmt.Sprintf("note(b0, %d).", i))
	}
	return w.serve("alice", "bob")
}

func (w *credSync) primary() string { return opBatch }

// roundBatches is how many batches run against one alice/bob pair. The
// next round starts on a freshly set-up pair (untimed), so a batch's
// latency does not depend on how many batches the run has completed.
const roundBatches = 10

func (w *credSync) measure(rec *recorder) {
	rnd := rand.New(rand.NewSource(w.cfg.seed))
	rec.start = time.Now()
	var measured time.Duration
	issued := 0
	for b := 1; measured < w.cfg.window && (w.cfg.maxOps <= 0 || issued < w.cfg.maxOps); b++ {
		if b > 1 && (b-1)%roundBatches == 0 {
			// The whole restart is left out of the measured timeline;
			// only the build, after teardown and a collection as in
			// runE2E, counts as a set-up.
			t0 := time.Now()
			w.close()
			runtime.GC()
			t1 := time.Now()
			w.rig = rig{cfg: w.cfg, signer: "alice"}
			if err := w.build(); err != nil {
				rec.fail(opBatch, "round setup", err)
				break
			}
			rec.setups = append(rec.setups, time.Since(t1).Seconds())
			rec.exclude(time.Since(t0))
			rec.dropTexts()
		}
		// One calibration kernel run per batch, outside measured time.
		rec.exclude(rec.calibrate(1))
		rec.begin(&w.rig)
		t0 := time.Now()
		w.batch(rec, rnd, b)
		measured += time.Since(t0)
		rec.end(&w.rig)
		issued += batchSize + 2
	}
	rec.elapsed = measured
}

// batch runs one batch: alice says batchSize notes, syncs, and bob must
// see all of them.
func (w *credSync) batch(rec *recorder, rnd *rand.Rand, b int) {
	alice, bob := w.sessions[0], w.sessions[1]
	// Distinct seeded payloads, said in seeded order.
	vals := rnd.Perm(batchSize * 100)[:batchSize]
	t0 := time.Now()
	ok := true
	for _, v := range vals {
		text := fmt.Sprintf("note(b%d, %d).", b, v)
		ok = w.timed(rec, opSay, text, time.Time{}, func() error { return alice.Say("bob", text) }) && ok
	}
	ok = w.timed(rec, opSync, "sync", time.Time{}, alice.Sync) && ok
	text := fmt.Sprintf("note(b%d, X)", b)
	rec.text(text)
	ok = w.timed(rec, opQuery, text, time.Time{}, func() error {
		rows, err := bob.Query(text)
		if err != nil {
			return err
		}
		return sameInts(rows, vals)
	}) && ok
	if !ok {
		return
	}
	rec.sample(opBatch, time.Since(t0))
	w.batches++
}

// sameInts checks that the rows' second column is exactly vals.
func sameInts(rows []datalog.Tuple, vals []int) error {
	got := make([]int, 0, len(rows))
	for _, t := range rows {
		if t.Len() != 2 {
			return fmt.Errorf("row %v has %d columns", t, t.Len())
		}
		v, ok := t.At(1).(datalog.Int)
		if !ok {
			return fmt.Errorf("row %v: payload is not an integer", t)
		}
		got = append(got, int(v))
	}
	want := append([]int(nil), vals...)
	sort.Ints(got)
	sort.Ints(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("bob sees %d of %d messages", len(got), len(want))
	}
	return nil
}

// check: every batch was checked for full visibility in measure.
func (w *credSync) check(*recorder) {}

func (w *credSync) e2e(rec *recorder) map[string]metric {
	return opMetrics(queryMetrics(rec), rec, opBatch, batchSize)
}

func (w *credSync) aliases(rec *recorder) []alias {
	return []alias{
		{"msgs_per_s", metric{rate(w.batches*batchSize, rec), "1/s"}},
		{"batch_visible_p50_ms", metric{ms(rec.quantile(opBatch, .5)), "ms"}},
		{"batch_visible_p90_ms", metric{ms(rec.quantile(opBatch, .9)), "ms"}},
	}
}

func (w *credSync) twin(*ledger) {}
