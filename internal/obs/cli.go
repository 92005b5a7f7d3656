package obs

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// CLI holds the observability flag values shared by every cmd tool:
// -metrics, -trace, -debug-addr, -progress-every, plus the pprof flags
// -cpuprofile and -memprofile that used to be copied into each tool.
type CLI struct {
	Metrics       bool
	Trace         string
	DebugAddr     string
	CPUProfile    string
	MemProfile    string
	ProgressEvery time.Duration
}

// AddFlags registers the shared observability flags on fl and returns
// the struct their values land in. Call (*CLI).Start after parsing.
func AddFlags(fl *flag.FlagSet) *CLI {
	c := &CLI{}
	fl.BoolVar(&c.Metrics, "metrics", false, "collect runtime metrics: live progress on stderr plus a final summary")
	fl.StringVar(&c.Trace, "trace", "", "write a JSONL journal of trace spans to this file")
	fl.StringVar(&c.DebugAddr, "debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	fl.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fl.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fl.DurationVar(&c.ProgressEvery, "progress-every", 2*time.Second, "interval between -metrics progress lines")
	return c
}

// Run is the live observability state of one tool invocation: the Obs
// bundle to hand to instrumented packages (nil when neither -metrics
// nor -trace was given), the run's root span, plus the background
// machinery (progress ticker, debug listener, profiles) torn down by
// Close.
type Run struct {
	Obs *Obs

	root         Span
	ctx          context.Context
	stderr       io.Writer
	start        time.Time
	metrics      bool
	traceFile    *os.File
	stopProf     func() error
	stopProgress func()
}

// Start brings up everything the parsed flags ask for: the metrics
// registry, the trace journal with the run's root span (a "run" span
// with the attribute tool), the progress ticker, the debug listener,
// and the CPU/heap profiles. It returns a *Run whose Close tears all of
// it down; Run.Obs is nil when no observability sink was requested,
// which instrumented packages treat as fully disabled.
func (c *CLI) Start(tool string, stderr io.Writer) (*Run, error) {
	r := &Run{stderr: stderr, start: time.Now(), metrics: c.Metrics}
	var reg *Registry
	var j *Journal
	if c.Metrics {
		reg = NewRegistry()
	}
	if c.Trace != "" {
		f, err := os.Create(c.Trace)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		r.traceFile = f
		j = NewJournal(f)
	}
	if reg != nil || j != nil {
		r.Obs = &Obs{Reg: reg, J: j}
	}
	r.root, r.ctx = r.Obs.StartSpan(context.Background(), "run")
	r.root.Str("tool", tool)
	stopProf, err := StartProfiles(c.CPUProfile, c.MemProfile)
	if err != nil {
		if r.traceFile != nil {
			r.traceFile.Close()
		}
		return nil, err
	}
	r.stopProf = stopProf
	if c.DebugAddr != "" {
		startDebugServer(c.DebugAddr, reg, stderr)
	}
	if reg != nil && c.ProgressEvery > 0 {
		r.stopProgress = startProgress(stderr, reg, c.ProgressEvery)
	}
	return r, nil
}

// Context returns the context of the run's root span, under which a
// tool's own spans open (context.Background() without a journal).
func (r *Run) Context() context.Context { return r.ctx }

// Close stops the progress ticker, ends the run's root span (the
// journal's last line), flushes the profiles, closes the journal file,
// and prints the final metrics summary. It returns the first error
// encountered; call it exactly once. Close on a nil *Run is a no-op.
func (r *Run) Close() error {
	if r == nil {
		return nil
	}
	if r.stopProgress != nil {
		r.stopProgress()
	}
	r.root.End()
	var first error
	if err := r.Obs.Journal().Err(); err != nil {
		first = fmt.Errorf("trace: %w", err)
	}
	if r.stopProf != nil {
		if err := r.stopProf(); err != nil && first == nil {
			first = err
		}
	}
	if r.traceFile != nil {
		if err := r.traceFile.Close(); err != nil && first == nil {
			first = fmt.Errorf("trace: %w", err)
		}
	}
	if r.metrics {
		WriteSummary(r.stderr, r.Obs.Registry().Snapshot(), time.Since(r.start))
	}
	return first
}

// debugReg is the registry served over expvar. It is a process-global
// because expvar.Publish panics on duplicate names; the last Start wins
// (cmd tools start at most one Run).
var (
	debugReg     atomic.Pointer[Registry]
	debugPublish sync.Once
)

// startDebugServer serves expvar (including the live metrics snapshot
// under the "closnet" variable) and net/http/pprof on addr. Listener
// failures are reported to stderr, never fatal: the debug port is an
// aid, not a dependency.
func startDebugServer(addr string, reg *Registry, stderr io.Writer) {
	debugReg.Store(reg)
	debugPublish.Do(func() {
		expvar.Publish("closnet", expvar.Func(func() any {
			return debugReg.Load().Snapshot()
		}))
	})
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(stderr, "obs: debug server: %v\n", err)
		}
	}()
}

// startProgress launches the ticker goroutine that reads the search
// counters from the registry and prints a progress line to w whenever
// the state count moved. The returned stop function terminates the
// goroutine synchronously.
func startProgress(w io.Writer, reg *Registry, every time.Duration) (stop func()) {
	states := reg.Counter("search.states")
	total := reg.Gauge("search.space_total")
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		start := time.Now()
		var last int64
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s := states.Value()
				if s == 0 || s == last {
					continue
				}
				last = s
				fmt.Fprintln(w, progressLine(s, total.Value(), time.Since(start)))
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// progressLine formats one live progress report: states evaluated out
// of the total canonical states, the rate, and the ETA at that rate.
// The total gauge accumulates across searches (closlab -all runs many),
// so the percentage tracks overall progress of the whole invocation.
func progressLine(states, total int64, elapsed time.Duration) string {
	rate := float64(states) / elapsed.Seconds()
	if total > states && rate > 0 {
		eta := time.Duration(float64(total-states) / rate * float64(time.Second))
		return fmt.Sprintf("obs: search %d/%d states (%.1f%%) %s states/s eta %s",
			states, total, 100*float64(states)/float64(total), fmtRate(rate), eta.Round(time.Millisecond))
	}
	return fmt.Sprintf("obs: search %d states %s states/s", states, fmtRate(rate))
}
