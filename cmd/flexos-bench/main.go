// Command flexos-bench regenerates the tables and figures of the FlexOS
// paper's evaluation (§6) as text tables on the simulated machine.
//
// Beyond the paper's figures it regenerates the multi-metric additions:
// "scenarios" prints every library scenario (Redis GET/SET mixes, Nginx
// keepalive mixes, iPerf stream counts, SQLite batches) on baseline vs
// isolated images across throughput/latency/memory/boot, and "pareto"
// prints the safety × throughput × memory frontier of a scenario's
// configuration space.
//
// Usage:
//
//	flexos-bench -fig all
//	flexos-bench -fig 10 -queries 250
//	flexos-bench -fig 6 -requests 300
//	flexos-bench -fig scenarios
//	flexos-bench -fig pareto -scenario redis-get90
//	flexos-bench -fig 8 -timeout 30s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"flexos/internal/explore"
	"flexos/internal/figures"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5 | 6 | 7 | 8 | 9 | 10 | 11a | 11b | table1 | scenarios | pareto | all")
	scenarioName := flag.String("scenario", "redis-get90", "scenario for -fig pareto")
	requests := flag.Int("requests", 250, "requests per configuration (Figs. 5-8)")
	queries := flag.Int("queries", 150, "INSERT queries (Fig. 10; reported scaled to 5000)")
	packets := flag.Int("packets", 40, "packets per buffer size (Fig. 9)")
	budget := flag.Float64("budget", 500_000, "performance budget in req/s (Figs. 5, 8)")
	workers := flag.Int("workers", 0, "concurrent measurement workers for the exploration figures (<= 0: GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the exploration figures after this duration (0: no deadline)")
	csvDir := flag.String("csv", "", "also write results as CSV files into this directory")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := f(); err != nil {
			if errors.Is(err, explore.ErrCanceled) {
				fmt.Fprintf(os.Stderr, "flexos-bench: figure %s: timed out after %v\n", name, *timeout)
			} else {
				fmt.Fprintf(os.Stderr, "flexos-bench: figure %s: %v\n", name, err)
			}
			os.Exit(1)
		}
		fmt.Println()
	}

	run("5", func() error {
		nodes, err := figures.Fig5(ctx, *requests, 600_000, *workers)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatFig5(nodes, 600_000))
		return nil
	})
	var redisRows, nginxRows []figures.ConfigPerf
	run("6", func() error {
		var err error
		redisRows, err = figures.Fig6Redis(ctx, *requests, *workers)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatFig6("Redis", redisRows))
		fmt.Println()
		nginxRows, err = figures.Fig6Nginx(ctx, *requests, *workers)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatFig6("Nginx", nginxRows))
		if *csvDir != "" {
			h, rows := figures.Fig6CSV(redisRows)
			if err := figures.WriteCSV(*csvDir, "6-redis", h, rows); err != nil {
				return err
			}
			h, rows = figures.Fig6CSV(nginxRows)
			if err := figures.WriteCSV(*csvDir, "6-nginx", h, rows); err != nil {
				return err
			}
		}
		return nil
	})
	run("7", func() error {
		if redisRows == nil {
			var err error
			if redisRows, err = figures.Fig6Redis(ctx, *requests, *workers); err != nil {
				return err
			}
			if nginxRows, err = figures.Fig6Nginx(ctx, *requests, *workers); err != nil {
				return err
			}
		}
		pts := figures.Fig7(redisRows, nginxRows)
		fmt.Print(figures.FormatFig7(pts))
		if *csvDir != "" {
			h, rows := figures.Fig7CSV(pts)
			return figures.WriteCSV(*csvDir, "7", h, rows)
		}
		return nil
	})
	run("8", func() error {
		res, err := figures.Fig8(ctx, *requests, *budget, *workers)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatFig8(res))
		return nil
	})
	run("9", func() error {
		rows, err := figures.Fig9(*packets)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatFig9(rows))
		if *csvDir != "" {
			h, out := figures.Fig9CSV(rows)
			return figures.WriteCSV(*csvDir, "9", h, out)
		}
		return nil
	})
	run("10", func() error {
		rows, err := figures.Fig10(*queries)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatFig10(rows))
		if *csvDir != "" {
			h, out := figures.Fig10CSV(rows)
			return figures.WriteCSV(*csvDir, "10", h, out)
		}
		return nil
	})
	run("11a", func() error {
		rows, err := figures.Fig11a()
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatFig11a(rows))
		if *csvDir != "" {
			h, out := figures.Fig11aCSV(rows)
			return figures.WriteCSV(*csvDir, "11a", h, out)
		}
		return nil
	})
	run("11b", func() error {
		rows, err := figures.Fig11b()
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatFig11b(rows))
		if *csvDir != "" {
			h, out := figures.Fig11bCSV(rows)
			return figures.WriteCSV(*csvDir, "11b", h, out)
		}
		return nil
	})
	run("table1", func() error {
		fmt.Print(figures.FormatTable1(figures.Table1()))
		return nil
	})
	run("scenarios", func() error {
		rows, err := figures.ScenarioTable()
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatScenarios(rows))
		if *csvDir != "" {
			h, out := figures.ScenariosCSV(rows)
			return figures.WriteCSV(*csvDir, "scenarios", h, out)
		}
		return nil
	})
	run("pareto", func() error {
		res, err := figures.ScenarioPareto(ctx, *scenarioName, *workers)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatPareto(*scenarioName, res))
		return nil
	})
}
