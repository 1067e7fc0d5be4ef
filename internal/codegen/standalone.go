package codegen

import (
	"bytes"
	"fmt"
	"strings"

	"ese/internal/platform"
)

// StandaloneFiles transpiles a mapped design into a self-contained,
// `go build`-able timed-TLM package: one Go type per PE with that PE's
// per-block delays baked in as exact hex floating-point constants, a
// miniature cooperative discrete-event kernel with the design's
// arbitrated bus, and a main that prints the canonical
// {"cycles_by_pe", "out_by_pe", "steps"} JSON summary — the same object
// `esetlm -json` prints, byte-for-byte, for the same spec. delays holds
// one per-block delay table per PE name, in dense program block order —
// the shape the pipeline's annotation returns and tlm.Options.Delays
// takes — so the artifact carries exactly the delays of the run that
// produced them. The returned map holds "main.go" and "go.mod" (module
// named module, stdlib only).
//
// Cycle accounting reproduces tlm.Run's transaction-boundary semantics
// exactly: each executed block's delay accumulates into a float64 pending
// pool, and at every send/recv (and at process end) the pool is drained —
// truncated to whole cycles per drain — into the PE's cycle counter.
func StandaloneFiles(d *platform.Design, delays map[string][]float64, module string) (map[string][]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := d.ValidateChannels(); err != nil {
		return nil, err
	}
	for _, pe := range d.PEs {
		if len(pe.Tasks) > 0 {
			return nil, fmt.Errorf("codegen: standalone TLM generation does not support RTOS PEs yet (PE %q)", pe.Name)
		}
	}
	prog := d.Program
	var w bytes.Buffer
	fmt.Fprintf(&w, "// Code generated by esegen for design %q; DO NOT EDIT.\n", d.Name)
	fmt.Fprintf(&w, "//\n// Standalone timed TLM: `go build` then run the binary; it prints the\n")
	fmt.Fprintf(&w, "// canonical {cycles_by_pe, out_by_pe, steps} JSON that `esetlm -json`\n")
	fmt.Fprintf(&w, "// prints for the same spec.\npackage main\n\n")
	w.WriteString("import (\n\t\"encoding/json\"\n\t\"fmt\"\n\t\"os\"\n\t\"sort\"\n)\n\n")

	// Shared initializer data for array globals (one literal regardless of
	// how many PEs copy it into their private global state).
	for gi, g := range prog.Globals {
		if !g.IsArray || !anyNonZero(g.Init) {
			continue
		}
		fmt.Fprintf(&w, "var gd%d = [%d]int32{\n", gi, g.Size)
		for i := 0; i < len(g.Init); i += 16 {
			end := i + 16
			if end > len(g.Init) {
				end = len(g.Init)
			}
			parts := make([]string, 0, 16)
			for _, v := range g.Init[i:end] {
				parts = append(parts, fmt.Sprint(v))
			}
			fmt.Fprintf(&w, "\t%s,\n", strings.Join(parts, ", "))
		}
		w.WriteString("}\n\n")
	}

	// Per-PE process code, each with its own PUM's delays.
	type peGen struct {
		pe    *platform.PE
		typ   string
		entry string // method name of the entry function
	}
	var pegs []peGen
	for pi, pe := range d.PEs {
		fn := prog.Func(pe.Entry)
		if fn == nil {
			return nil, fmt.Errorf("codegen: PE %q: no function %q", pe.Name, pe.Entry)
		}
		if len(fn.Params) > 0 {
			return nil, fmt.Errorf("codegen: PE %q: entry %q must take no parameters", pe.Name, pe.Entry)
		}
		dm, ok := delays[pe.Name]
		if !ok {
			return nil, fmt.Errorf("codegen: %s: no delays for PE %q", d.Name, pe.Name)
		}
		if len(dm) != prog.NumBlocks() {
			return nil, fmt.Errorf("codegen: %s: PE %q has %d delays for a program of %d blocks",
				d.Name, pe.Name, len(dm), prog.NumBlocks())
		}
		p := newProgEmit(prog, modeStandalone, fmt.Sprintf("pe%d", pi), dm)
		fmt.Fprintf(p.w, "// ---- PE %s (model %s) ----\n\n", pe.Name, pe.PUM.Name)
		fmt.Fprintf(p.w, "type pe%d struct {\n\tenv *procEnv\n", pi)
		for gi, g := range prog.Globals {
			if g.IsArray {
				fmt.Fprintf(p.w, "\t%s [%d]int32\n", p.gname[gi], g.Size)
			} else {
				fmt.Fprintf(p.w, "\t%s int32\n", p.gname[gi])
			}
		}
		p.w.WriteString("}\n\n")
		fmt.Fprintf(p.w, "func newPe%d(env *procEnv) *pe%d {\n\ts := &pe%d{env: env}\n", pi, pi, pi)
		for gi, g := range prog.Globals {
			if g.IsArray {
				if anyNonZero(g.Init) {
					fmt.Fprintf(p.w, "\ts.%s = gd%d\n", p.gname[gi], gi)
				}
			} else if len(g.Init) > 0 && g.Init[0] != 0 {
				fmt.Fprintf(p.w, "\ts.%s = %d\n", p.gname[gi], g.Init[0])
			}
		}
		p.w.WriteString("\treturn s\n}\n\n")
		if err := p.emitFuncs(); err != nil {
			return nil, err
		}
		w.Write(p.w.Bytes())
		var efn string
		for i, f := range prog.Funcs {
			if f == fn {
				efn = p.fnName[i]
			}
		}
		pegs = append(pegs, peGen{pe: pe, typ: fmt.Sprintf("pe%d", pi), entry: efn})
	}

	w.WriteString(standaloneRuntime)

	// main: wire the kernel, bus and one process per PE, then print the
	// canonical summary.
	w.WriteString("func main() {\n\tk := newKernel()\n")
	fmt.Fprintf(&w, "\tbus := newBus(k, %d, %d, %d)\n",
		d.Bus.ClockHz, d.Bus.ArbCycles, d.Bus.WordCycles)
	for pi, pg := range pegs {
		periodPs := 1_000_000_000_000 / pg.pe.PUM.ClockHz
		fmt.Fprintf(&w, "\tenv%d := &procEnv{name: %q, bus: bus, periodPs: %d}\n",
			pi, pg.pe.Name, periodPs)
		fmt.Fprintf(&w, "\tk.spawn(%q, func(p *proc) {\n\t\tenv%d.p = p\n", pg.pe.Name, pi)
		fmt.Fprintf(&w, "\t\ts := newPe%d(env%d)\n", pi, pi)
		fmt.Fprintf(&w, "\t\tif _, err := s.%s(); err != nil {\n", pg.entry)
		fmt.Fprintf(&w, "\t\t\tfmt.Fprintf(os.Stderr, \"tlm: process %%s: %%v\\n\", %q, err)\n\t\t\tos.Exit(1)\n\t\t}\n", pg.pe.Name)
		fmt.Fprintf(&w, "\t\tenv%d.drain()\n\t})\n", pi)
	}
	w.WriteString("\tif err := k.run(); err != nil {\n\t\tfmt.Fprintln(os.Stderr, \"tlm:\", err)\n\t\tos.Exit(1)\n\t}\n")
	var envList []string
	for pi := range pegs {
		envList = append(envList, fmt.Sprintf("env%d", pi))
	}
	fmt.Fprintf(&w, "\tprintSummary([]*procEnv{%s})\n}\n", strings.Join(envList, ", "))

	src, err := gofmtBytes(w.Bytes())
	if err != nil {
		return nil, err
	}
	gomod := fmt.Sprintf("module %s\n\ngo 1.22\n", module)
	return map[string][]byte{"main.go": src, "go.mod": []byte(gomod)}, nil
}

func anyNonZero(vs []int32) bool {
	for _, v := range vs {
		if v != 0 {
			return true
		}
	}
	return false
}

// standaloneRuntime is the fixed runtime embedded in every standalone
// package: the IR arithmetic/diagnostic helpers (matching the in-process
// engines' semantics and error text), a compact cooperative
// discrete-event kernel, the arbitrated rendezvous bus, and the
// per-process environment with transaction-boundary delay accounting.
const standaloneRuntime = `// ---- runtime: IR helpers, mini kernel, bus, process environment ----

// rtDiv is the IR division: x/0 folds to 0 and MinInt32/-1 to MinInt32.
func rtDiv(a, b int32) int32 {
	if b == 0 {
		return 0
	}
	if a == -2147483648 && b == -1 {
		return a
	}
	return a / b
}

// rtRem is the IR remainder: x%0 folds to 0 and MinInt32%-1 to 0.
func rtRem(a, b int32) int32 {
	if b == 0 {
		return 0
	}
	if a == -2147483648 && b == -1 {
		return 0
	}
	return a % b
}

func rtBool(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func genOOB(pos string, idx int32, n int, fn string) error {
	return fmt.Errorf("interp: %s: index %d out of range [0,%d) in %s", pos, idx, n, fn)
}

func genSendRange(pos string, n int32, ln int) error {
	return fmt.Errorf("interp: %s: send count %d out of range [0,%d]", pos, n, ln)
}

func genRecvRange(pos string, n int32, ln int) error {
	return fmt.Errorf("interp: %s: recv count %d out of range [0,%d]", pos, n, ln)
}

func genFellThrough(id int, fn string) error {
	return fmt.Errorf("interp: block bb%d of %s fell through without terminator", id, fn)
}

type proc struct {
	name   string
	resume chan struct{}
	yield  chan struct{}
	state  int // 0 ready, 1 waiting for time, 2 blocked on rendezvous, 3 done
	wake   uint64
	body   func(p *proc)
	start  bool
}

type kernel struct {
	now   uint64
	procs []*proc
}

func newKernel() *kernel { return &kernel{} }

func (k *kernel) spawn(name string, body func(p *proc)) *proc {
	p := &proc{
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
		body:   body,
	}
	k.procs = append(k.procs, p)
	return p
}

// dispatch runs p until it yields.
func (k *kernel) dispatch(p *proc) {
	if !p.start {
		p.start = true
		go func() {
			p.body(p)
			p.state = 3
			p.yield <- struct{}{}
		}()
	} else {
		p.resume <- struct{}{}
	}
	<-p.yield
}

// run executes until no process can make progress, reporting a deadlock
// when processes are still blocked on a rendezvous.
func (k *kernel) run() error {
	for {
		progressed := false
		for _, p := range k.procs {
			if p.state == 0 {
				k.dispatch(p)
				progressed = true
			}
		}
		if progressed {
			continue
		}
		var best *proc
		for _, p := range k.procs {
			if p.state == 1 && (best == nil || p.wake < best.wake) {
				best = p
			}
		}
		if best == nil {
			var blocked []string
			for _, p := range k.procs {
				if p.state == 2 {
					blocked = append(blocked, p.name)
				}
			}
			if len(blocked) > 0 {
				sort.Strings(blocked)
				return fmt.Errorf("deadlock: processes still blocked: %v", blocked)
			}
			return nil
		}
		if best.wake > k.now {
			k.now = best.wake
		}
		for _, p := range k.procs {
			if p.state == 1 && p.wake <= k.now {
				p.state = 0
			}
		}
	}
}

// waitPs suspends the process for d picoseconds.
func (p *proc) waitPs(k *kernel, d uint64) {
	p.state = 1
	p.wake = k.now + d
	p.yield <- struct{}{}
	<-p.resume
	p.state = 0
}

// block suspends until a peer completes the rendezvous.
func (p *proc) block() {
	p.state = 2
	p.yield <- struct{}{}
	<-p.resume
	p.state = 0
}

// wakeAt schedules a rendezvous-blocked process to resume at time t.
func (p *proc) wakeAt(t uint64) {
	p.state = 1
	p.wake = t
}

type channelState struct {
	sendData []int32
	sendProc *proc
	recvBuf  []int32
	recvProc *proc
}

type bus struct {
	k          *kernel
	periodPs   uint64
	arbCycles  uint64
	wordCycles uint64
	busyUntil  uint64
	channels   map[int]*channelState
}

func newBus(k *kernel, clockHz int64, arb, word int) *bus {
	return &bus{
		k:          k,
		periodPs:   uint64(1000000000000 / clockHz),
		arbCycles:  uint64(arb),
		wordCycles: uint64(word),
		channels:   map[int]*channelState{},
	}
}

func (b *bus) chanFor(id int) *channelState {
	c, ok := b.channels[id]
	if !ok {
		c = &channelState{}
		b.channels[id] = c
	}
	return c
}

// complete performs the arbitrated transfer and returns its end time.
func (b *bus) complete(words int) uint64 {
	start := b.k.now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	b.busyUntil = start + (b.arbCycles+uint64(words)*b.wordCycles)*b.periodPs
	return b.busyUntil
}

func (b *bus) send(p *proc, ch int, data []int32) {
	c := b.chanFor(ch)
	if c.recvBuf != nil {
		n := copy(c.recvBuf, data)
		end := b.complete(n)
		c.recvProc.wakeAt(end)
		c.recvBuf = nil
		c.recvProc = nil
		p.waitPs(b.k, end-b.k.now)
		return
	}
	c.sendData = data
	c.sendProc = p
	p.block()
}

func (b *bus) recv(p *proc, ch int, buf []int32) {
	c := b.chanFor(ch)
	if c.sendData != nil {
		n := copy(buf, c.sendData)
		end := b.complete(n)
		c.sendProc.wakeAt(end)
		c.sendData = nil
		c.sendProc = nil
		p.waitPs(b.k, end-b.k.now)
		return
	}
	c.recvBuf = buf
	c.recvProc = p
	p.block()
}

// procEnv is one PE's runtime: per-block delays pool into pend and drain
// — truncated to whole cycles per drain, exactly like the in-process TLM
// — at each transaction boundary and at process end.
type procEnv struct {
	name     string
	p        *proc
	bus      *bus
	periodPs uint64
	pend     float64
	cycles   uint64
	drained  bool
	steps    uint64
	outs     []int32
}

func (e *procEnv) drain() {
	if e.pend > 0 {
		c := uint64(e.pend)
		e.p.waitPs(e.bus.k, c*e.periodPs)
		e.cycles += c
		e.drained = true
		e.pend = 0
	}
}

func (e *procEnv) send(ch int, data []int32) {
	e.drain()
	e.bus.send(e.p, ch, data)
}

func (e *procEnv) recv(ch int, buf []int32) {
	e.drain()
	e.bus.recv(e.p, ch, buf)
}

func (e *procEnv) out(v int32) { e.outs = append(e.outs, v) }

// printSummary emits the canonical JSON object esetlm -json also prints.
func printSummary(envs []*procEnv) {
	cycles := map[string]uint64{}
	outByPE := map[string][]int32{}
	var steps uint64
	for _, e := range envs {
		if e.drained {
			cycles[e.name] = e.cycles
		}
		o := e.outs
		if o == nil {
			o = []int32{}
		}
		outByPE[e.name] = o
		steps += e.steps
	}
	res := struct {
		CyclesByPE map[string]uint64  ` + "`json:\"cycles_by_pe\"`" + `
		OutByPE    map[string][]int32 ` + "`json:\"out_by_pe\"`" + `
		Steps      uint64             ` + "`json:\"steps\"`" + `
	}{cycles, outByPE, steps}
	data, err := json.Marshal(&res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlm:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

`
