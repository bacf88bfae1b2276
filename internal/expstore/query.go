package expstore

import (
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The query language is space-separated key=value tokens:
//
//	category=srv variant=all,none metric=ipc group-by=rob stat=p50,p99
//
// Three keys are reserved: metric names the numeric column to aggregate
// (default ipc), group-by a comma list of identity columns to group rows
// by, and stat a comma list of aggregates (default mean). Every other
// token is a filter: column=value[,value...] matches cells whose column
// equals any listed value.

// Filter matches a column against a disjunction of literal values.
type Filter struct {
	Col  string
	Vals []string
}

// Query is a parsed query.
type Query struct {
	Filters []Filter
	Metric  string
	GroupBy []string
	Stats   []string
}

// statNames are the supported aggregates, in canonical display order.
var statNames = []string{"count", "sum", "mean", "geomean", "min", "max", "p50", "p90", "p95", "p99"}

// ParseQuery parses the query language, validating column and stat names
// against the schema.
func ParseQuery(src string) (Query, error) {
	q := Query{Metric: "ipc", Stats: []string{"mean"}}
	statSet := make(map[string]bool, len(statNames))
	for _, s := range statNames {
		statSet[s] = true
	}
	for _, tok := range strings.Fields(src) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || k == "" || v == "" {
			return q, fmt.Errorf("expstore: token %q is not key=value", tok)
		}
		switch k {
		case "metric":
			if !NumericColumn(v) {
				return q, fmt.Errorf("expstore: metric %q is not a numeric column", v)
			}
			q.Metric = v
		case "group-by":
			for _, col := range strings.Split(v, ",") {
				i, ok := colIndex[col]
				if !ok {
					return q, fmt.Errorf("expstore: unknown group-by column %q", col)
				}
				if columns[i].kind != kindDict && columns[i].kind != kindUint {
					return q, fmt.Errorf("expstore: cannot group by %s column %q", kindName(columns[i].kind), col)
				}
				q.GroupBy = append(q.GroupBy, col)
			}
		case "stat":
			q.Stats = nil
			for _, s := range strings.Split(v, ",") {
				if !statSet[s] {
					return q, fmt.Errorf("expstore: unknown stat %q (have %s)", s, strings.Join(statNames, ", "))
				}
				q.Stats = append(q.Stats, s)
			}
		default:
			if _, ok := colIndex[k]; !ok {
				return q, fmt.Errorf("expstore: unknown column %q", k)
			}
			q.Filters = append(q.Filters, Filter{Col: k, Vals: strings.Split(v, ",")})
		}
	}
	return q, nil
}

func kindName(k colKind) string {
	switch k {
	case kindDict:
		return "string"
	case kindUint:
		return "uint"
	case kindFloat:
		return "float"
	case kindKey:
		return "key"
	}
	return "unknown"
}

// QueryStats reports how much work a query did.
type QueryStats struct {
	// BytesRead is the block bytes this call read from disk: the index
	// load, if this call made it, or every block for FullScan.
	BytesRead int64 `json:"bytes_read"`
	// CellsScanned cells were evaluated; CellsMatched passed the filters;
	// DupDropped were duplicate content keys dropped keep-first — by the
	// index load this call made, or by FullScan's own dedup.
	CellsScanned int `json:"cells_scanned"`
	CellsMatched int `json:"cells_matched"`
	DupDropped   int `json:"dup_dropped"`
}

// Row is one output group.
type Row struct {
	// Group holds the group-by column values, parallel to Query.GroupBy.
	Group []string
	// Count is the number of cells aggregated; Values parallels
	// Result.StatNames.
	Count  int
	Values []float64
}

// Result is a query's output.
type Result struct {
	Metric    string
	GroupBy   []string
	StatNames []string
	Rows      []Row
	Stats     QueryStats
}

// compiledFilter is a Filter resolved against the schema with values
// parsed per the column's kind.
type compiledFilter struct {
	col  int
	strs map[string]bool
	u64s []uint64
	f64s []float64
	keys []Key
}

type compiledQuery struct {
	q       Query
	filters []compiledFilter
	metric  int
	groups  []int
}

func compile(q Query) (compiledQuery, error) {
	cq := compiledQuery{q: q, metric: colIndex[q.Metric]}
	for _, f := range q.Filters {
		ci := colIndex[f.Col]
		cf := compiledFilter{col: ci}
		switch columns[ci].kind {
		case kindDict:
			cf.strs = make(map[string]bool, len(f.Vals))
			for _, v := range f.Vals {
				cf.strs[v] = true
			}
		case kindUint:
			for _, v := range f.Vals {
				u, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return cq, fmt.Errorf("expstore: %s=%s: want an unsigned integer", f.Col, v)
				}
				cf.u64s = append(cf.u64s, u)
			}
		case kindFloat:
			for _, v := range f.Vals {
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return cq, fmt.Errorf("expstore: %s=%s: want a float", f.Col, v)
				}
				cf.f64s = append(cf.f64s, x)
			}
		case kindKey:
			for _, v := range f.Vals {
				raw, err := hex.DecodeString(v)
				if err != nil || len(raw) != KeyBytes {
					return cq, fmt.Errorf("expstore: %s=%s: want %d hex bytes", f.Col, v, KeyBytes)
				}
				var k Key
				copy(k[:], raw)
				cf.keys = append(cf.keys, k)
			}
		}
		cq.filters = append(cq.filters, cf)
	}
	for _, g := range q.GroupBy {
		cq.groups = append(cq.groups, colIndex[g])
	}
	return cq, nil
}

// collector aggregates matching cells into grouped stat rows. Both the
// index path and the full scan from disk feed the same collector, which
// is what makes their results comparable byte-for-byte.
type collector struct {
	cq     *compiledQuery
	seen   map[Key]bool
	groups map[string]*groupAgg
	order  []string
	stats  QueryStats
}

type groupAgg struct {
	group []string
	vals  []float64
}

func newCollector(cq *compiledQuery) *collector {
	return &collector{cq: cq, seen: make(map[Key]bool), groups: make(map[string]*groupAgg)}
}

// scan evaluates cells against the query and feeds the matches.
// Duplicate content keys — crash leftovers or concurrent writers — are
// kept-first; the engine is deterministic, so duplicates carry identical
// values and the choice cannot change results.
func (c *collector) scan(cells []Cell) {
	for i := range cells {
		cell := &cells[i]
		c.stats.CellsScanned++
		if !c.cq.matchCell(cell) {
			continue
		}
		c.stats.CellsMatched++
		if c.seen[cell.Key] {
			c.stats.DupDropped++
			continue
		}
		c.seen[cell.Key] = true
		group := c.cq.cellGroup(cell)
		gk := strings.Join(group, "\x00")
		g := c.groups[gk]
		if g == nil {
			g = &groupAgg{group: group}
			c.groups[gk] = g
			c.order = append(c.order, gk)
		}
		g.vals = append(g.vals, c.cq.cellMetric(cell))
	}
}

func (c *collector) result() *Result {
	res := &Result{
		Metric:    c.cq.q.Metric,
		GroupBy:   c.cq.q.GroupBy,
		StatNames: c.cq.q.Stats,
		Stats:     c.stats,
	}
	// Sort rows by group tuple: uint columns numerically, dict columns
	// lexicographically.
	sort.Slice(c.order, func(i, j int) bool {
		a, b := c.groups[c.order[i]].group, c.groups[c.order[j]].group
		for k := range a {
			if a[k] == b[k] {
				continue
			}
			if columns[c.cq.groups[k]].kind == kindUint {
				ua, _ := strconv.ParseUint(a[k], 10, 64)
				ub, _ := strconv.ParseUint(b[k], 10, 64)
				return ua < ub
			}
			return a[k] < b[k]
		}
		return false
	})
	for _, gk := range c.order {
		g := c.groups[gk]
		sort.Float64s(g.vals)
		row := Row{Group: g.group, Count: len(g.vals)}
		for _, st := range c.cq.q.Stats {
			row.Values = append(row.Values, aggregate(st, g.vals))
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// aggregate computes one stat over ascending-sorted values.
func aggregate(stat string, sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	switch stat {
	case "count":
		return float64(n)
	case "sum", "mean":
		s := 0.0
		for _, v := range sorted {
			s += v
		}
		if stat == "mean" {
			return s / float64(n)
		}
		return s
	case "geomean":
		s := 0.0
		for _, v := range sorted {
			if v <= 0 {
				return 0
			}
			s += math.Log(v)
		}
		return math.Exp(s / float64(n))
	case "min":
		return sorted[0]
	case "max":
		return sorted[n-1]
	case "p50", "p90", "p95", "p99":
		p, _ := strconv.Atoi(stat[1:])
		// Nearest-rank percentile.
		idx := int(math.Ceil(float64(p)/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		return sorted[idx]
	}
	return math.NaN()
}

// matchCell evaluates the compiled filters against a cell.
func (cq *compiledQuery) matchCell(cell *Cell) bool {
	for fi := range cq.filters {
		f := &cq.filters[fi]
		c := &columns[f.col]
		ok := false
		switch c.kind {
		case kindDict:
			ok = f.strs[*c.str(cell)]
		case kindUint:
			v := *c.u64(cell)
			for _, u := range f.u64s {
				if u == v {
					ok = true
					break
				}
			}
		case kindFloat:
			v := *c.f64(cell)
			for _, x := range f.f64s {
				if x == v {
					ok = true
					break
				}
			}
		case kindKey:
			v := *c.ckey(cell)
			for _, k := range f.keys {
				if k == v {
					ok = true
					break
				}
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// cellGroup renders a decoded cell's group-by values.
func (cq *compiledQuery) cellGroup(cell *Cell) []string {
	group := make([]string, len(cq.groups))
	for i, ci := range cq.groups {
		c := &columns[ci]
		if c.kind == kindDict {
			group[i] = *c.str(cell)
		} else {
			group[i] = strconv.FormatUint(*c.u64(cell), 10)
		}
	}
	return group
}

func (cq *compiledQuery) cellMetric(cell *Cell) float64 {
	c := &columns[cq.metric]
	if c.kind == kindFloat {
		return *c.f64(cell)
	}
	return float64(*c.u64(cell))
}

// Query executes q over the in-memory index, which holds every cell on
// disk (loaded on first use) and every pending append. It writes nothing.
func (s *Store) Query(q Query) (*Result, error) {
	cq, err := compile(q)
	if err != nil {
		return nil, err
	}
	col := newCollector(&cq)
	s.mu.Lock()
	col.stats.BytesRead, col.stats.DupDropped = s.loadLocked()
	// Appends only ever write past the end of this prefix, so it can be
	// read without the lock.
	cells := s.cells
	s.mu.Unlock()
	col.scan(cells)
	return col.result(), nil
}

// FullScan executes q by brute force from disk: pending cells are flushed,
// then every block is read and decoded and every cell evaluated, with
// keep-first dedup. It is the reference for Query, which must return
// identical rows.
func (s *Store) FullScan(q Query) (*Result, error) {
	cq, err := compile(q)
	if err != nil {
		return nil, err
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	col := newCollector(&cq)
	s.mu.Lock()
	col.stats.BytesRead = s.scanLocked(col.scan)
	s.mu.Unlock()
	return col.result(), nil
}

// ScanCells flushes pending cells, then decodes every serveable block in
// order and returns all cells, duplicates included — the on-disk multiset
// the compaction and dedup tests check.
func (s *Store) ScanCells() ([]Cell, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	var out []Cell
	s.mu.Lock()
	s.scanLocked(func(cells []Cell) { out = append(out, cells...) })
	s.mu.Unlock()
	return out, nil
}

// Cells fetches the given content keys from the index. This is the figure
// pipeline's read-back path: after a sweep it rehydrates every cell it
// just appended (or deduped against), making the sweep the store's first
// consumer. It writes nothing.
func (s *Store) Cells(keys []Key) (map[Key]Cell, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loadLocked()
	out := make(map[Key]Cell, len(keys))
	for _, k := range keys {
		if i, ok := s.byKey[k]; ok {
			out[k] = s.cells[i]
		}
	}
	return out, nil
}
