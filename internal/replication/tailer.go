package replication

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"cisgraph/internal/resilience"
)

// TailerConfig parameterizes a follower's WAL tail loop.
type TailerConfig struct {
	// Leader is the leader's base URL, e.g. "http://127.0.0.1:8080".
	Leader string
	// LongPoll bounds how long one tail request may idle at the leader
	// waiting for new records. Defaults to 10s.
	LongPoll time.Duration
	// BackoffBase/BackoffMax bound the jittered exponential backoff used
	// after transport failures. Defaults: 100ms / 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed makes backoff jitter reproducible in chaos runs.
	Seed int64
	// Client overrides the HTTP client (e.g. to point at a fault proxy).
	Client *http.Client
}

// Status is a connectivity observation delivered to OnStatus after every
// poll attempt, successful or not.
type Status struct {
	// LeaderNext is the leader's next WAL index as of the last response
	// that carried one; zero until first contact.
	LeaderNext uint64
	// LeaderEpoch is the leadership epoch the leader advertised on the
	// last response that carried one (X-CISGraph-Epoch).
	LeaderEpoch uint64
	// Connected reports whether the last poll reached the leader.
	Connected bool
}

// Tailer streams the leader's WAL into apply callbacks, surviving leader
// restarts, torn responses, and retention races. Run is single-goroutine;
// all callbacks fire from that goroutine, so the follower's apply path
// keeps the engine's single-writer discipline.
type Tailer struct {
	cfg TailerConfig

	// Apply consumes one verified record. Records arrive strictly in index
	// order with no gaps or duplicates. An error stops the tailer.
	Apply func(rec resilience.Record) error
	// Rebootstrap is invoked when the leader can no longer serve the
	// needed records (retention race, or a leader that restarted behind
	// us). It must reload follower state from the leader's checkpoint and
	// return the next index to tail from.
	Rebootstrap func() (uint64, error)
	// OnStatus, if set, observes connectivity after every poll.
	OnStatus func(Status)
	// Epoch reports this follower's leadership epoch, sent on every tail
	// request (X-CISGraph-Epoch) so a deposed leader learns it was fenced.
	// Nil means epoch 0.
	Epoch func() uint64
	// OnStaleLeader is consulted when the leader turns out to be fenced
	// BEHIND this follower (its advertised epoch is lower than ours, or it
	// answered 412 acknowledging the fence). It may return the URL of the
	// real leader — typically discovered by probing a peer list — and the
	// tailer re-points there; returning ok=false keeps the tailer backing
	// off against the stale leader (it may itself re-point or restart).
	OnStaleLeader func(leaderEpoch uint64) (newLeader string, ok bool)
	// OnRepoint observes every leader-URL change (421 handoff or
	// OnStaleLeader), so the serving layer can update redirect targets.
	OnRepoint func(leader string)

	client *http.Client
	rng    *rand.Rand

	leader atomic.Pointer[string]

	// Telemetry, exported on the follower's /metrics.
	Reconnects   atomic.Uint64
	Rebootstraps atomic.Uint64
	Records      atomic.Uint64
	Repoints     atomic.Uint64
}

// errRebootstrap signals poll → Run that the leader answered 410/409 and
// the follower must restart from the leader's checkpoint.
var errRebootstrap = errors.New("repl: leader cannot serve requested records")

// staleLeaderError signals poll → Run that the peer we are tailing is
// fenced behind us — a deposed leader. Records from it must not be applied.
type staleLeaderError struct{ epoch uint64 }

func (e staleLeaderError) Error() string {
	return fmt.Sprintf("repl: leader is deposed (epoch %d is behind ours)", e.epoch)
}

// NewTailer builds a tailer; wire Apply/Rebootstrap/OnStatus before Run.
func NewTailer(cfg TailerConfig) *Tailer {
	if cfg.LongPoll <= 0 {
		cfg.LongPoll = 10 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	t := &Tailer{cfg: cfg, client: cfg.Client, rng: rand.New(rand.NewSource(cfg.Seed ^ 0x7a11))}
	if t.client == nil {
		t.client = &http.Client{}
	}
	t.leader.Store(&cfg.Leader)
	return t
}

// Leader returns the URL the tailer currently polls — the configured leader
// until a 421 handoff or OnStaleLeader re-points it.
func (t *Tailer) Leader() string { return *t.leader.Load() }

// repoint atomically switches the tailed leader and tells the serving layer.
func (t *Tailer) repoint(leader string) {
	t.leader.Store(&leader)
	if t.OnRepoint != nil {
		t.OnRepoint(leader)
	}
}

// Repoint switches the tailed leader from outside the tail loop — the
// promotion watchdog calls it when it discovers a freshly promoted peer.
// The next poll's epoch exchange vets the target; a bogus URL just fails
// that poll and backs off.
func (t *Tailer) Repoint(leader string) {
	if leader == "" || leader == t.Leader() {
		return
	}
	t.Repoints.Add(1)
	t.repoint(leader)
}

// epoch returns the follower's own leadership epoch.
func (t *Tailer) epoch() uint64 {
	if t.Epoch == nil {
		return 0
	}
	return t.Epoch()
}

// Run tails the leader's WAL from index `from` until ctx is canceled or a
// callback returns an error. Transport failures reconnect with jittered
// exponential backoff; 410/409 responses trigger Rebootstrap.
func (t *Tailer) Run(ctx context.Context, from uint64) error {
	backoff := t.cfg.BackoffBase
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		next, err := t.poll(ctx, from)
		from = next
		switch {
		case err == nil:
			backoff = t.cfg.BackoffBase
			continue
		case errors.Is(err, errRebootstrap):
			if t.Rebootstrap == nil {
				return err
			}
			t.Rebootstraps.Add(1)
			nf, rerr := t.Rebootstrap()
			if rerr != nil {
				// Bootstrap source unreachable or corrupt — back off and
				// retry the tail; a repeated 410 re-triggers this path.
				t.notify(Status{Connected: false})
				if serr := t.sleep(ctx, t.jitter(backoff)); serr != nil {
					return serr
				}
				backoff = t.nextBackoff(backoff)
				continue
			}
			from = nf
			backoff = t.cfg.BackoffBase
			continue
		case errors.As(err, new(staleLeaderError)):
			// The peer we tail is fenced behind us — a deposed leader. Ask
			// the serving layer where the real leader went; until it knows,
			// back off (applying a deposed leader's records would fork us).
			var stale staleLeaderError
			errors.As(err, &stale)
			if t.OnStaleLeader != nil {
				if nl, ok := t.OnStaleLeader(stale.epoch); ok && nl != "" && nl != t.Leader() {
					t.Repoints.Add(1)
					t.repoint(nl)
					backoff = t.cfg.BackoffBase
					continue
				}
			}
			t.notify(Status{Connected: false})
			if serr := t.sleep(ctx, t.jitter(backoff)); serr != nil {
				return serr
			}
			backoff = t.nextBackoff(backoff)
		case ctx.Err() != nil:
			return ctx.Err()
		case isFatal(err):
			return err
		default:
			// Transport-level failure: leader down, partition, torn
			// response. Reconnect from the first unverified record.
			t.Reconnects.Add(1)
			t.notify(Status{Connected: false})
			if serr := t.sleep(ctx, t.jitter(backoff)); serr != nil {
				return serr
			}
			backoff = t.nextBackoff(backoff)
		}
	}
}

// poll performs one tail request. It returns the next index to request —
// already advanced past every record successfully applied, so a mid-stream
// failure never replays verified work — plus the error that ended the poll
// (nil when the stream completed cleanly).
func (t *Tailer) poll(ctx context.Context, from uint64) (uint64, error) {
	// Self-imposed deadline: the leader parks the request up to LongPoll;
	// the grace covers response transfer. This also bounds how long a
	// silent partition can hold the loop hostage.
	rctx, cancel := context.WithTimeout(ctx, t.cfg.LongPoll+5*time.Second)
	defer cancel()
	u := t.Leader() + PathTail + "?from=" + strconv.FormatUint(from, 10)
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, u, nil)
	if err != nil {
		return from, fmt.Errorf("repl: build tail request: %w", err)
	}
	own := t.epoch()
	req.Header.Set(HeaderEpoch, strconv.FormatUint(own, 10))
	resp, err := t.client.Do(req)
	if err != nil {
		return from, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()

	leaderNext := parseNextHeader(resp.Header)
	leaderEpoch := parseEpochHeader(resp.Header)
	// Fencing: never apply records from a peer whose epoch is behind ours —
	// it was deposed, and its log may diverge from the epoch we follow. An
	// absent header reads as epoch 0 (pre-epoch leader), fenced the moment
	// we have ever seen a higher epoch.
	if leaderEpoch < own {
		return from, staleLeaderError{epoch: leaderEpoch}
	}
	switch resp.StatusCode {
	case http.StatusOK:
		// Stream below.
	case http.StatusNoContent:
		// Caught up; the leader parked us for LongPoll and nothing came.
		t.notify(Status{LeaderNext: leaderNext, LeaderEpoch: leaderEpoch, Connected: true})
		return from, nil
	case http.StatusGone, http.StatusConflict:
		// 410: retention deleted records we still need. 409: the leader is
		// behind us (restarted from an older checkpoint / wiped WAL) — our
		// state no longer extends its log, so only a re-bootstrap is safe.
		t.notify(Status{LeaderNext: leaderNext, LeaderEpoch: leaderEpoch, Connected: true})
		return from, fmt.Errorf("%w (status %d)", errRebootstrap, resp.StatusCode)
	case http.StatusPreconditionFailed:
		// The peer acknowledges our epoch fences it: deposed leader.
		return from, staleLeaderError{epoch: leaderEpoch}
	case http.StatusMisdirectedRequest:
		// The peer is itself a follower now and hands us its leader. Verify
		// and re-point; the next poll's epoch exchange vets the target.
		if loc := resp.Header.Get("Location"); loc != "" {
			if nl, lerr := LeaderURL(loc); lerr == nil && nl != t.Leader() {
				t.Repoints.Add(1)
				t.repoint(nl)
				return from, nil
			}
		}
		t.notify(Status{LeaderNext: leaderNext, LeaderEpoch: leaderEpoch, Connected: true})
		return from, fmt.Errorf("repl: tail: peer is a follower and supplied no usable Location")
	default:
		t.notify(Status{LeaderNext: leaderNext, LeaderEpoch: leaderEpoch, Connected: true})
		return from, fmt.Errorf("repl: tail: leader answered %s", resp.Status)
	}

	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var buf []byte
	for {
		var rec resilience.Record
		rec, buf, err = resilience.ReadRecord(br, buf)
		if err == io.EOF {
			t.notify(Status{LeaderNext: leaderNext, LeaderEpoch: leaderEpoch, Connected: true})
			return from, nil
		}
		if err != nil {
			// Torn or bad record: everything before it was verified and
			// applied; reconnect and re-fetch from the unverified suffix.
			return from, fmt.Errorf("repl: tail: %w", err)
		}
		if rec.Index < from {
			continue // duplicate after reconnect — already applied
		}
		if rec.Index > from {
			return from, fmt.Errorf("repl: tail stream gap: want record %d, got %d", from, rec.Index)
		}
		if err := t.Apply(rec); err != nil {
			return from, fatalError{fmt.Errorf("repl: apply record %d: %w", rec.Index, err)}
		}
		t.Records.Add(1)
		from = rec.Index + 1
		if leaderNext < from {
			leaderNext = from
		}
		t.notify(Status{LeaderNext: leaderNext, LeaderEpoch: leaderEpoch, Connected: true})
	}
}

// fatalError marks errors that must stop Run instead of being retried —
// an Apply failure means follower state is suspect, not the transport.
type fatalError struct{ err error }

func (f fatalError) Error() string { return f.err.Error() }
func (f fatalError) Unwrap() error { return f.err }

func isFatal(err error) bool {
	var f fatalError
	return errors.As(err, &f)
}

func (t *Tailer) notify(s Status) {
	if t.OnStatus != nil {
		t.OnStatus(s)
	}
}

// jitter spreads reconnects of independent followers across [b/2, b] so a
// leader restart doesn't see a synchronized stampede.
func (t *Tailer) jitter(b time.Duration) time.Duration {
	half := int64(b) / 2
	return time.Duration(half + t.rng.Int63n(half+1))
}

func (t *Tailer) nextBackoff(b time.Duration) time.Duration {
	b *= 2
	if b > t.cfg.BackoffMax {
		b = t.cfg.BackoffMax
	}
	return b
}

func (t *Tailer) sleep(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

func parseNextHeader(h http.Header) uint64 {
	v := h.Get(HeaderNext)
	if v == "" {
		return 0
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

func parseEpochHeader(h http.Header) uint64 {
	v := h.Get(HeaderEpoch)
	if v == "" {
		return 0
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// LeaderURL validates and normalizes a leader base URL (scheme + host, no
// trailing slash). Shared by cisgraphd flag parsing and tests.
func LeaderURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("repl: leader url: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("repl: leader url %q: scheme must be http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("repl: leader url %q: missing host", raw)
	}
	u.Path = ""
	u.RawQuery = ""
	u.Fragment = ""
	return u.String(), nil
}
