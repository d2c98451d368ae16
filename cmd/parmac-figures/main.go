// parmac-figures regenerates the paper's tables and figures as text tables.
//
// Usage:
//
//	parmac-figures -exp fig10          # one experiment
//	parmac-figures -exp all            # everything (slow)
//	parmac-figures -list               # available experiment ids
//	parmac-figures -exp fig7 -quick    # reduced scale
//
// Each experiment id matches a table or figure of the paper.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id (figN, tab1, tab-sift1b) or 'all'")
	quick := flag.Bool("quick", false, "run at reduced scale")
	seed := flag.Int64("seed", 1, "random seed")
	list := flag.Bool("list", false, "list available experiments")
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = nil
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	cfg := experiments.RunConfig{Quick: *quick, Seed: *seed}
	for _, id := range ids {
		if err := experiments.RunAndPrint(id, cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
}
