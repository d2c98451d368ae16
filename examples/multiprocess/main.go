// examples/multiprocess demonstrates ParMAC's deployment claim end to end:
// the same binary autoencoder trains once with machines as goroutines
// (in-process transport) and once with machines as separate OS processes
// exchanging binary frames over TCP — and, with a fixed seed and no ring
// shuffling, reaches the identical nested error, because the engine and both
// transports honour the same conformance contract.
//
// Run it from the repo root:
//
//	go run ./examples/multiprocess
//
// The parent process acts as the coordinator and re-executes itself once per
// machine; each worker process rebuilds its shard of the problem from the
// shared seed, dials the coordinator's rendezvous hub, and serves the W/Z
// protocol until shutdown.
package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/binauto"
	"repro/internal/cluster/tcp"
	"repro/internal/core"
	"repro/internal/dataset"
)

const (
	nPoints  = 900
	dim      = 12
	bits     = 6
	machines = 3
	iters    = 4
	seed     = 5
)

func buildProblem() (*dataset.Dataset, *binauto.ParMACProblem) {
	ds := dataset.GISTLike(nPoints, dim, 4, seed)
	shards := dataset.ShuffledShardIndices(ds.N, machines, nil, seed)
	prob := binauto.NewParMACProblem(ds, shards, binauto.ParMACConfig{
		L: bits, Mu0: 1e-4, MuFactor: 2, ZMethod: binauto.ZAlternate, Seed: seed,
	})
	return ds, prob
}

func engineConfig() core.Config {
	// Shuffle off: machine-visit order is then deterministic, so the two
	// transports must agree bit for bit, not just statistically.
	return core.Config{P: machines, Epochs: 1, Shuffle: false, Seed: seed}
}

func main() {
	if len(os.Args) == 4 && os.Args[1] == "worker" {
		workerMain(os.Args[2], os.Args[3])
		return
	}

	// Reference run: the classic single-process engine.
	ds, prob := buildProblem()
	eng := core.New(prob, engineConfig())
	eng.Run(iters)
	eng.Shutdown()
	inprocEBA := prob.AssembleModel().EBA(ds)
	fmt.Printf("in-process transport: E_BA = %.4f (1 process, %d goroutine machines)\n",
		inprocEBA, machines)

	// Distributed run: same problem, one OS process per machine.
	hub, err := tcp.NewHub("127.0.0.1:0", machines+1)
	fatalIf(err)
	defer hub.Close()

	self, err := os.Executable()
	fatalIf(err)
	children := make([]*exec.Cmd, machines)
	for r := 0; r < machines; r++ {
		children[r] = exec.Command(self, "worker", hub.Addr(), strconv.Itoa(r))
		children[r].Stderr = os.Stderr
		fatalIf(children[r].Start())
	}
	pids := make([]int, machines)
	for r, c := range children {
		pids[r] = c.Process.Pid
	}

	comm, err := tcp.Connect(hub.Addr(), machines)
	fatalIf(err)
	dsTCP, probTCP := buildProblem()
	engTCP := core.NewDistributed(probTCP, engineConfig(), comm)
	results := engTCP.Run(iters)
	tcpEBA := probTCP.AssembleModel().EBA(dsTCP)
	engTCP.Shutdown()
	comm.Close()
	fatalIf(hub.Wait(30 * time.Second))
	for _, c := range children {
		fatalIf(c.Wait())
	}
	fmt.Printf("tcp transport:        E_BA = %.4f (%d worker processes %v + coordinator)\n",
		tcpEBA, machines, pids)
	fmt.Printf("model traffic over the wire: %d bytes in the final iteration\n",
		results[len(results)-1].ModelBytes)

	if math.Abs(inprocEBA-tcpEBA) > 1e-9 {
		fmt.Fprintf(os.Stderr, "TRANSPORTS DIVERGED: %.9f vs %.9f\n", inprocEBA, tcpEBA)
		os.Exit(1)
	}
	fmt.Println("transports agree: same model from goroutines and OS processes")
}

// workerMain is one ParMAC machine in its own OS process.
func workerMain(addr, rankStr string) {
	rank, err := strconv.Atoi(rankStr)
	fatalIf(err)
	_, prob := buildProblem() // same seed ⇒ same shards everywhere
	comm, err := tcp.Connect(addr, rank)
	fatalIf(err)
	core.RunWorker(comm, prob, rank, core.WorkerOptions{Seed: core.WorkerSeed(seed, rank)})
	comm.Close()
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "multiprocess example:", err)
		os.Exit(1)
	}
}
