// parmac-speedup explores the parallel-speedup model of §5: given the workload
// and cost parameters it prints the closed-form S(P) over a range of machine
// counts, the model constants ρ1/ρ2/ρ, and the predicted optimum P*. With
// -sim it adds the simulated S(P) of the same parameters.
//
// Usage:
//
//	parmac-speedup -n 1000000 -m 512 -e 1 -twr 1 -tzr 5 -twc 1000 -pmax 2000
//	parmac-speedup -bits 16 ...         # sets m = 2L per §5.4
//	parmac-speedup ... -sim             # add the discrete-event simulation
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/speedup"
)

func main() {
	n := flag.Int("n", 1000000, "training points N")
	m := flag.Int("m", 512, "independent submodels M")
	bits := flag.Int("bits", 0, "BA code length L; sets M = 2L when given")
	e := flag.Int("e", 1, "epochs per W step")
	twr := flag.Float64("twr", 1, "W-step compute per submodel per point")
	tzr := flag.Float64("tzr", 5, "Z-step compute per point per submodel")
	twc := flag.Float64("twc", 1000, "W-step communication per submodel hop")
	pmax := flag.Int("pmax", 2000, "largest machine count to evaluate")
	steps := flag.Int("steps", 20, "number of P samples")
	withSim := flag.Bool("sim", false, "also run the discrete-event simulator")
	flag.Parse()

	checks := []struct {
		bad bool
		msg string
	}{
		{flag.NArg() > 0, fmt.Sprintf("unexpected argument %q", flag.Arg(0))},
		{*n < 1, "-n must be at least 1"},
		{*m < 1, "-m must be at least 1"},
		{*bits < 0, "-bits must not be negative"},
		{*e < 1, "-e must be at least 1"},
		{!(*twr >= 0), "-twr must not be negative"},
		{!(*tzr >= 0), "-tzr must not be negative"},
		{!(*twc > 0), "-twc must be positive"},
		{*pmax < 2, "-pmax must be at least 2"},
		{*steps < 2, "-steps must be at least 2"},
	}
	for _, c := range checks {
		if c.bad {
			fmt.Fprintln(os.Stderr, "error:", c.msg)
			os.Exit(1)
		}
	}
	if *bits > 0 {
		*m = speedup.EffectiveSubmodels(*bits)
	}
	p := speedup.Params{N: *n, M: *m, E: *e, TWr: *twr, TZr: *tzr, TWc: *twc}
	fmt.Printf("model: N=%d M=%d e=%d tWr=%g tZr=%g tWc=%g\n", *n, *m, *e, *twr, *tzr, *twc)
	fmt.Printf("rho1=%.6f rho2=%.6f rho=%.6f rhoN=%.1f\n", p.Rho1(), p.Rho2(), p.Rho(), p.PerfectSpeedupBound())
	pStar, sStar := p.GlobalMax()
	fmt.Printf("global maximum: S*=%.1f at P*=%.0f\n\n", sStar, pStar)

	if *withSim {
		fmt.Printf("%8s %12s %12s\n", "P", "S theory", "S simulated")
	} else {
		fmt.Printf("%8s %12s\n", "P", "S theory")
	}
	for i := 0; i < *steps; i++ {
		pp := 1 + i*(*pmax-1)/(*steps-1)
		s := p.Speedup(float64(pp))
		if *withSim {
			ss := p.T(1) / p.Simulate(speedup.Cluster{P: pp, Seed: 1}).T
			fmt.Printf("%8d %12.1f %12.1f\n", pp, s, ss)
		} else {
			fmt.Printf("%8d %12.1f\n", pp, s)
		}
	}
}
