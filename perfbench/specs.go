package main

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strconv"
)

// spec is one request the benchmark sends: an experiment run
// (`rebase -exp <Exp> -step <Step>` or a daemon job) or an experiment-store
// query (`rebase query '<Query>'`).
type spec struct {
	Exp   string
	Step  int
	Query string
}

func (s spec) String() string {
	if s.Query != "" {
		return "query " + s.Query
	}
	return fmt.Sprintf("exp %s %d", s.Exp, s.Step)
}

// args returns the rebase command line for s against the store under dir.
func (s spec) args(dir string) []string {
	if s.Query != "" {
		return []string{"query", "-store-dir", dir + "/exp", s.Query}
	}
	return []string{"-exp", s.Exp, "-step", strconv.Itoa(s.Step), "-q", "-cache-dir", dir}
}

// The populated store holds every cell of `-exp all -step 9`. Every spec
// the warm and serve workloads send stays inside it: each experiment is
// part of "all", and a step that is a multiple of 9 keeps a subset of the
// traces step 9 keeps.
const (
	populateExp  = "all"
	populateStep = 9
)

var (
	universeExps  = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "table2", "table3", "all"}
	universeSteps = []int{9, 18, 27, 36, 45}
	// The three BENCH_10 queries plus a full scan.
	universeQueries = []string{
		"trace=compute_int_0 variant=All_imps stat=mean",
		"category=srv variant=all,none metric=ipc group-by=rob stat=p50,p99",
		"config=ipc1 group-by=prefetcher stat=count,mean",
		"metric=ipc group-by=variant stat=p50",
	}
)

// expSpecs returns every experiment spec of the universe.
func expSpecs() []spec {
	var out []spec
	for _, e := range universeExps {
		for _, s := range universeSteps {
			out = append(out, spec{Exp: e, Step: s})
		}
	}
	return out
}

// querySpecs returns every query spec of the universe.
func querySpecs() []spec {
	out := make([]spec, len(universeQueries))
	for i, q := range universeQueries {
		out[i] = spec{Query: q}
	}
	return out
}

// pins holds the md5 of the text output of every spec, recorded at the
// commit that introduced the benchmark. Query outputs are pinned without
// their "  -- " scan-statistics trailer: the trailer reports bytes and
// blocks read, which a storage change may move without changing a result.
var pins = map[string]string{
	"exp table1 1":  "88997b910eaf54748ef7bf82bf864194",
	"exp fig1 9":    "8f5b972c770480db0afd47ec68727fba",
	"exp fig1 18":   "fbdb48919428ca22421c54e7626c2069",
	"exp fig1 27":   "918bddf4418d1ddc9b00c365dca2cda0",
	"exp fig1 36":   "19f99d226d3a4e3c925e8e672476ef49",
	"exp fig1 45":   "745c98f9cfa7f5f0161bddf5b5d10b74",
	"exp fig2 9":    "89e5405d223f380c6157ba186f697e5f",
	"exp fig2 18":   "dc129e15253585bad601f0bd98f4e5a8",
	"exp fig2 27":   "6bad359579dfeb9ec73a67de7deeeb32",
	"exp fig2 36":   "a2fed906cf053514f4028390eb5eccfd",
	"exp fig2 45":   "55687042a71c7f1880dc82194e7e21dd",
	"exp fig3 9":    "6918e3ebedd6c1a46e15255fc880727b",
	"exp fig3 18":   "235023019a2dd213fac649d81453d80f",
	"exp fig3 27":   "1027484ce3885edd6f183fdee9f4445a",
	"exp fig3 36":   "72d6d1513ec145925c588ca63ecf32cd",
	"exp fig3 45":   "ff69e2916dc7c3fd21d2032db40605eb",
	"exp fig4 9":    "aa9f0ba895c4a9320ba6975b490d7d0b",
	"exp fig4 18":   "1abe23f0cccfcdd281770149e211f12a",
	"exp fig4 27":   "e0d0da8881178e6d38fa0c866c4da6f4",
	"exp fig4 36":   "3c9454f04f1834469d45b30e1c22f834",
	"exp fig4 45":   "95cecd3157afcd087fab8f5c23e31596",
	"exp fig5 9":    "073dfedc5ef9bf8de116218f5028a357",
	"exp fig5 18":   "073dfedc5ef9bf8de116218f5028a357",
	"exp fig5 27":   "d0ca92fa71374feed7b321eaf5565767",
	"exp fig5 36":   "d0ca92fa71374feed7b321eaf5565767",
	"exp fig5 45":   "073dfedc5ef9bf8de116218f5028a357",
	"exp table2 9":  "93e513c77c5a2b01018bd639d8d1b5af",
	"exp table2 18": "06be5e49a803b7ec34c25f68239101c6",
	"exp table2 27": "c649f9ddfde93b5a8ca51702b26375ea",
	"exp table2 36": "d83140a93418d87e6e7df3ebda1b1258",
	"exp table2 45": "998455e5cb8cb27fb21a50a12c29bdcb",
	"exp table3 9":  "b11c54c48dc096071d08b2c00bda5531",
	"exp table3 18": "e44ba47a475a3c8262cfe5f735f1fdb0",
	"exp table3 27": "7df311994319ab59c19b3b6227f06bed",
	"exp table3 36": "082518a824ca1b04b738801389e69b99",
	"exp table3 45": "2ce1501a9b94cb5567376e1fb22f7f73",
	"exp all 9":     "feb42fe6af4e9de2c58e471df369cfab",
	"exp all 18":    "afafa52a27f5e911381b27057f41f98c",
	"exp all 27":    "d48f71174169798d37f9362b5babf736",
	"exp all 36":    "91a0378c656b7c56c1c954ab24c4e23c",
	"exp all 45":    "586d6afcc75f0d37ee899c33827612e4",

	"query trace=compute_int_0 variant=All_imps stat=mean":                     "e97b0b2afc66c63272555424f1b14f9e",
	"query category=srv variant=all,none metric=ipc group-by=rob stat=p50,p99": "df7e620cdb29ced3be0228b153a9a17f",
	"query config=ipc1 group-by=prefetcher stat=count,mean":                    "800cf341c4165dcb7ec492a51ce26fcd",
	"query metric=ipc group-by=variant stat=p50":                               "86e186a207a24dfaa56b40328ddd8ffd",
}

// checkOutput reports whether out is the pinned text output of s.
func checkOutput(s spec, out []byte) error {
	want, ok := pins[s.String()]
	if !ok {
		return fmt.Errorf("%s: no pinned output", s)
	}
	if s.Query != "" {
		out = stripQueryTrailer(out)
	}
	sum := md5.Sum(out)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("%s: output md5 %s, pinned %s", s, got, want)
	}
	return nil
}

func stripQueryTrailer(out []byte) []byte {
	var b bytes.Buffer
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("  -- ")) {
			b.Write(line)
		}
	}
	return b.Bytes()
}

// warmSequence returns the warm workload's requests: passes passes over
// every experiment and query spec, each pass in an order drawn from seed.
// Every seed sends the same requests, so seeds move only the order.
func warmSequence(seed uint64, passes int) []spec {
	pool := append(expSpecs(), querySpecs()...)
	rng := rand.New(rand.NewPCG(seed, 0x7761726d))
	var out []spec
	for i := 0; i < passes; i++ {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		out = append(out, pool...)
	}
	return out
}

// serveList returns the jobs the serve workload submits to its round-th
// daemon: every experiment spec, in an order drawn from seed and round.
func serveList(seed uint64, round int) []spec {
	pool := expSpecs()
	rng := rand.New(rand.NewPCG(seed, uint64(round)))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}
