// Command cad3-vehicles emulates a fleet of connected vehicles against a
// running cad3-rsu broker: each vehicle streams synthetic Table II
// records at 10 Hz and polls for warnings every 10 ms, printing end-to-end
// latency when done (the role of PC1 in the paper's testbed).
//
// Each record is the 200 B binary frame and carries a trace context in its
// padding; warnings coming back carry the full per-stage stamp set, so the
// fleet also prints the live Tx/Queue/Processing/Dissemination breakdown
// (Figure 6a) measured in flight — see OBSERVABILITY.md.
//
// Usage:
//
//	cad3-vehicles -addr 127.0.0.1:9092 -n 32 -duration 10s [-seed 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cad3/internal/experiments"
	"cad3/internal/metrics"
	"cad3/internal/stream"
	"cad3/internal/vehicle"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cad3-vehicles:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:9092", "RSU broker address")
	n := flag.Int("n", 32, "number of vehicles")
	duration := flag.Duration("duration", 10*time.Second, "run duration")
	seed := flag.Int64("seed", 1, "record pool seed")
	conns := flag.Int("conns", stream.DefaultPoolSize, "pooled pipelined connections shared by the fleet")
	perConn := flag.Bool("per-conn", false, "one connection per vehicle instead of a shared pool (for comparison)")
	flag.Parse()

	pool, _, err := experiments.BuildLatencyInputs(*seed)
	if err != nil {
		return err
	}

	// By default the whole fleet multiplexes a small pool of pipelined
	// connections with per-link circuit breakers; -per-conn restores the
	// paper's one-connection-per-producer emulation.
	var clientFor func(i int) stream.Client
	if *perConn {
		clients := make([]*stream.RetryClient, 0, *n)
		defer func() {
			for _, c := range clients {
				_ = c.Close()
			}
		}()
		for i := 0; i < *n; i++ {
			c, err := stream.DialRetry(*addr, 0, 0)
			if err != nil {
				return fmt.Errorf("dial vehicle %d: %w", i, err)
			}
			clients = append(clients, c)
		}
		clientFor = func(i int) stream.Client { return clients[i] }
	} else {
		pc, err := stream.DialPool(*addr, stream.PoolConfig{Size: *conns})
		if err != nil {
			return fmt.Errorf("dial pool: %w", err)
		}
		defer pc.Close()
		clientFor = func(i int) stream.Client { return pc }
	}

	fleet, err := vehicle.NewFleet(*n, pool, clientFor, vehicle.Config{Loop: true})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *duration)
	defer cancel()

	fmt.Printf("%d vehicles streaming to %s for %s...\n", *n, *addr, *duration)
	if err := fleet.Run(ctx); err != nil {
		return err
	}

	fmt.Printf("sent %d records, received %d warnings\n", fleet.TotalSent(), fleet.TotalReceived())
	var count, traced int
	agg := metrics.NewBreakdownAccumulator()
	for i, v := range fleet.Vehicles() {
		rep := v.Latencies()
		if rep.Total.Count == 0 {
			continue
		}
		count += rep.Total.Count
		if i < 5 {
			fmt.Printf("vehicle %d: warnings=%d end-to-end %s\n", i+1, rep.Total.Count, rep.Total)
		}
		traced += v.TracedCount()
		v.MergeTracedInto(agg)
	}
	fmt.Printf("total warnings with latency samples: %d (%d fully traced)\n", count, traced)
	if traced > 0 {
		rep := agg.Report()
		fmt.Printf("live trace means: tx=%s queue=%s proc=%s dissem=%s total=%s\n",
			rep.Tx.Mean.Round(10*time.Microsecond),
			rep.Queue.Mean.Round(10*time.Microsecond),
			rep.Processing.Mean.Round(10*time.Microsecond),
			rep.Dissemination.Mean.Round(10*time.Microsecond),
			rep.Total.Mean.Round(10*time.Microsecond))
	}
	return nil
}
