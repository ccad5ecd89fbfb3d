// Command pciescope is the simulated counterpart of the paper's PCIe bus
// analyzer (the "active interposer" of Fig 3): it traces a GPU peer-to-
// peer transmission at transaction granularity and dumps the capture.
//
// Usage:
//
//	pciescope -size 1M -version 2 -window 32K
//	pciescope -size 64K -version 3 -csv
//	pciescope -size 64K -json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"apenetsim/internal/cluster"
	"apenetsim/internal/core"
	"apenetsim/internal/gpu"
	"apenetsim/internal/rdma"
	"apenetsim/internal/sim"
	"apenetsim/internal/trace"
	"apenetsim/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, traces one GPU peer-to-peer PUT and
// writes the capture to stdout, returning the exit status — 2 for a bad
// flag, 1 for a failed run or write.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pciescope", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sizeStr := fs.String("size", "1M", "transfer size (e.g. 64K, 1M)")
	version := fs.Int("version", 2, "GPU_P2P_TX generation (1, 2, 3)")
	windowStr := fs.String("window", "32K", "prefetch window")
	csv := fs.Bool("csv", false, "dump the capture as CSV")
	jsonOut := fs.Bool("json", false, "dump the capture as JSON")
	summary := fs.Bool("summary", true, "print the per-component summary")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	size, err := units.ParseByteSize(*sizeStr)
	if err != nil {
		fmt.Fprintln(stderr, "pciescope:", err)
		return 2
	}
	if size <= 0 {
		fmt.Fprintf(stderr, "pciescope: -size %v: want a positive transfer size\n", size)
		return 2
	}
	window, err := units.ParseByteSize(*windowStr)
	if err != nil {
		fmt.Fprintln(stderr, "pciescope:", err)
		return 2
	}

	eng := sim.New()
	cfg := core.DefaultConfig()
	cfg.FlushAtSwitch = true
	cfg.TXVersion = *version
	cfg.PrefetchWindow = window
	rec := trace.New()
	cl, err := cluster.SingleNode(eng, rec, cfg, gpu.Fermi2050())
	if err != nil {
		fmt.Fprintln(stderr, "pciescope:", err)
		return 1
	}
	node := cl.Nodes[0]
	ep := rdma.NewEndpoint(node.Card)
	var start, done sim.Time
	var runErr error
	eng.Go("scope", func(p *sim.Proc) {
		src, err := ep.NewGPUBuffer(p, node.GPU(0), size)
		if err != nil {
			runErr = err
			return
		}
		start = p.Now()
		if _, err := ep.Put(p, 0, src.Addr, src, 0, size, rdma.PutFlags{}); err != nil {
			runErr = err
			return
		}
		ep.WaitSend(p)
		done = p.Now()
	})
	eng.Run()
	eng.Shutdown()
	if runErr != nil {
		fmt.Fprintln(stderr, "pciescope:", runErr)
		return 1
	}

	elapsed := done.Sub(start)
	if *jsonOut {
		// The shared capture schema (docs/REPORTS.md): the same trace.File
		// apebench -trace-out writes and apetrace renders, so one toolchain
		// reads every capture. apetrace still accepts the legacy bare
		// event-array dumps.
		f := trace.NewFile("pciescope", fmt.Sprintf("p2p-v%d-%s", *version, size), rec)
		if err := f.Write(stdout); err != nil {
			fmt.Fprintln(stderr, "pciescope:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "# GPU_P2P_TX v%d window=%s size=%s: %v (%s)\n",
		*version, window, size, elapsed, units.Rate(size, elapsed))
	if *csv {
		if err := rec.WriteCSV(stdout); err != nil {
			fmt.Fprintln(stderr, "pciescope:", err)
			return 1
		}
		return 0
	}
	if *summary {
		fmt.Fprintln(stdout, "# per-component capture summary:")
		for _, s := range rec.Summarize() {
			fmt.Fprintf(stdout, "%-24s %-14s count=%-7d bytes=%-12d span=%v..%v\n",
				s.Comp, s.Kind, s.Count, s.Bytes, s.First, s.Last)
		}
	}
	return 0
}
