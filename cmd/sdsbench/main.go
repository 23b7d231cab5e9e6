// Command sdsbench prints the paper's evaluation tables (E1–E8).
//
// Usage:
//
//	sdsbench          # run every experiment
//	sdsbench E3 E5    # run selected experiments
//	sdsbench -list    # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	flag.Parse()

	all := bench.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return
	}

	selected := map[string]bool{}
	for _, a := range flag.Args() {
		selected[strings.ToUpper(a)] = true
	}
	ran := 0
	for _, e := range all {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		fmt.Printf("== %s: %s ==\n\n", e.ID, e.Name)
		for _, t := range e.Run() {
			t.Fprint(os.Stdout)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "sdsbench: no experiment matches %v (use -list)\n", flag.Args())
		os.Exit(1)
	}
}
