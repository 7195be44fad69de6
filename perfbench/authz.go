package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lbtrust/internal/core"
	"lbtrust/internal/datalog"
	"lbtrust/internal/server"
	"lbtrust/internal/workspace"
)

// authzPolicy is the reference monitor's Binder-style policy: trust the
// membership credentials hr says to it, and derive the authorization
// predicate from memberships and local grants.
const authzPolicy = `
tr: active(R) <- says(hr, me, R), R = [| member(U,G). |].
may(U,O,M) <- member(U,G), grant(G,O,M).
`

// authzSizes are the generated policy's dimensions.
type authzSizes struct {
	users, groups, grantsPerGroup, objects int
}

func authzSize(tiny bool) authzSizes {
	if tiny {
		return authzSizes{users: 60, groups: 6, grantsPerGroup: 4, objects: 20}
	}
	return authzSizes{users: 500, groups: 25, grantsPerGroup: 40, objects: 400}
}

var modes = []string{"read", "write", "exec"}

// authz is the authz-read workload: two closed-loop sessions asking
// may(uK, O, M) of the reference monitor, K drawn Zipf(1.1).
type authz struct {
	rig
	size authzSizes
	// want holds each user's expected answer.
	want map[string]answer
}

// answer is an expected query answer: its rows rendered and sorted, and
// their count and hash sum, which check a served answer without
// rendering it (the benchmark's client shares the CPUs with the server).
type answer struct {
	rows []string
	n    int
	sum  uint64
}

func (a answer) check(rows []datalog.Tuple) error {
	var sum uint64
	for _, t := range rows {
		sum += t.Hash()
	}
	if len(rows) == a.n && sum == a.sum {
		return nil
	}
	return fmt.Errorf("answer %v, want %v", render(rows), a.rows)
}

func setupAuthz(cfg config) (workload, error) {
	w := &authz{rig: rig{cfg: cfg, signer: "rm"}, size: authzSize(cfg.tiny)}
	if err := w.build(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *authz) build() error {
	s := w.size
	rnd := rand.New(rand.NewSource(w.cfg.seed))
	// grants: each group holds grantsPerGroup distinct (object, mode) pairs.
	grants := make([][][2]string, s.groups)
	for g := range grants {
		seen := map[[2]string]bool{}
		for len(grants[g]) < s.grantsPerGroup {
			p := [2]string{fmt.Sprintf("o%d", rnd.Intn(s.objects)), modes[rnd.Intn(len(modes))]}
			if !seen[p] {
				seen[p] = true
				grants[g] = append(grants[g], p)
			}
		}
	}
	w.want = map[string]answer{}
	creds := make([]string, s.users)
	for u := 0; u < s.users; u++ {
		user, g := fmt.Sprintf("u%d", u), rnd.Intn(s.groups)
		creds[u] = fmt.Sprintf("member(%s, g%d).", user, g)
		var rows []datalog.Tuple
		for _, p := range grants[g] {
			rows = append(rows, datalog.NewTuple(datalog.Sym(user), datalog.Sym(p[0]), datalog.Sym(p[1])))
		}
		a := answer{rows: render(rows), n: len(rows)}
		for _, t := range rows {
			a.sum += t.Hash()
		}
		w.want[user] = a
	}
	rnd.Shuffle(len(creds), func(i, j int) { creds[i], creds[j] = creds[j], creds[i] })
	w.statements = creds[:min(100, len(creds))]

	w.sys = core.NewSystem()
	hr, err := w.sys.AddPrincipal("hr")
	if err != nil {
		return err
	}
	rm, err := w.sys.AddPrincipal("rm")
	if err != nil {
		return err
	}
	w.reader = rm
	if err := w.sys.EstablishRSA("rm"); err != nil {
		return err
	}
	if err := w.sys.EstablishSharedSecret("hr", "rm"); err != nil {
		return err
	}
	for _, p := range []*core.Principal{hr, rm} {
		if err := p.UseScheme(core.SchemeHMAC); err != nil {
			return err
		}
	}
	if err := rm.LoadProgram(authzPolicy); err != nil {
		return err
	}
	if err := rm.Update(func(tx *workspace.Tx) error {
		for g, ps := range grants {
			for _, p := range ps {
				t := datalog.NewTuple(datalog.Sym(fmt.Sprintf("g%d", g)), datalog.Sym(p[0]), datalog.Sym(p[1]))
				if err := tx.AssertTuple("grant", t); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := hr.SayAll("rm", creds); err != nil {
		return err
	}
	if err := w.sys.Sync(); err != nil {
		return err
	}
	if got := rm.Count("member"); got != s.users {
		return fmt.Errorf("rm imported %d of %d member credentials", got, s.users)
	}
	return w.serve("rm", "rm")
}

func (w *authz) primary() string { return opQuery }

// The sessions run in rounds of calRound; between rounds they pause
// while the calibration kernel runs roundKernels times, and the pause is
// left out of the measured time. Short rounds spread the kernel's runs
// over the window and over both vCPUs.
const (
	calRound     = 200 * time.Millisecond
	roundKernels = 2
)

// authzSession is one session's query stream, kept across rounds.
type authzSession struct {
	c    *server.Client
	zipf *rand.Zipf
	n    int // queries issued
}

func (w *authz) measure(rec *recorder) {
	rec.begin(&w.rig)
	defer rec.end(&w.rig)
	// Zipf ranks map to users through a per-run permutation, so the hot
	// users differ between seeds.
	perm := rand.New(rand.NewSource(w.cfg.seed)).Perm(w.size.users)
	ss := make([]*authzSession, len(w.sessions))
	for i, c := range w.sessions {
		rnd := rand.New(rand.NewSource(w.cfg.seed*7919 + int64(i) + 1))
		ss[i] = &authzSession{c: c, zipf: rand.NewZipf(rnd, 1.1, 1, uint64(w.size.users-1))}
	}
	rec.start = time.Now()
	var measured time.Duration
	for measured < w.cfg.window && (w.cfg.maxOps <= 0 || ss[0].n < w.cfg.maxOps) {
		rec.exclude(rec.calibrate(roundKernels))
		t0 := time.Now()
		deadline := t0.Add(min(calRound, w.cfg.window-measured))
		var wg sync.WaitGroup
		for _, s := range ss {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ; w.more(deadline, s.n); s.n++ {
					user := fmt.Sprintf("u%d", perm[s.zipf.Uint64()])
					text := fmt.Sprintf("may(%s, O, M)", user)
					rec.text(text)
					w.timed(rec, opQuery, text, time.Time{}, func() error {
						rows, err := s.c.Query(text)
						if err != nil {
							return err
						}
						return w.want[user].check(rows)
					})
				}
			}()
		}
		wg.Wait()
		measured += time.Since(t0)
	}
	rec.elapsed = measured
}

// check: every answer was compared in measure.
func (w *authz) check(*recorder) {}

func (w *authz) e2e(rec *recorder) map[string]metric {
	return opMetrics(queryMetrics(rec), rec, opQuery, 1)
}

func (w *authz) aliases(rec *recorder) []alias {
	return []alias{{"decisions_per_s", metric{rate(rec.count(opQuery), rec), "1/s"}}}
}

func (w *authz) twin(*ledger) {}
