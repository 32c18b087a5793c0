package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"xrank"
)

// tiedShardDir builds one shard whose documents tie on "common" but
// were added out of name order: z.xml at Build, a.xml by AddDocs, so
// the shard's own order (by document ID) puts z before a.
func tiedShardDir(t *testing.T) string {
	t.Helper()
	const doc = `<r><t>common tie</t><p>filler</p></r>`
	dir := t.TempDir()
	e := xrank.NewEngine(&xrank.Config{IndexDir: dir})
	if err := e.AddXML("z.xml", strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if err := e.AddDocs(map[string]io.Reader{"a.xml": strings.NewReader(doc)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCoordinatorTieOrder: on tied scores the coordinator keeps its
// shards' order, so its top-m is a prefix of its top-(m+1) and a
// one-shard coordinator answers its shard's results byte for byte.
func TestCoordinatorTieOrder(t *testing.T) {
	rep := startReplica(t, map[int]string{0: tiedShardDir(t)}, muxOpts())
	_, coord := startCoordinator(t, CoordinatorConfig{Shards: [][]string{{rep.URL}}, HedgeDelay: -1})
	client := serialClient()
	search := func(base string, m int) string {
		url := fmt.Sprintf("%s/api/search?q=common&m=%d", base, m)
		st, _, body := get(t, client, url)
		if st != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, st, body)
		}
		return results(t, body)
	}
	prev := []xrank.SearchResult{}
	for m := 1; m <= 3; m++ {
		got, shard := search(coord.URL, m), search(rep.URL, m)
		if got != shard {
			t.Fatalf("m=%d: coordinator results differ from its one shard's\n got %s\nwant %s", m, got, shard)
		}
		var rs []xrank.SearchResult
		if err := json.Unmarshal([]byte(got), &rs); err != nil {
			t.Fatal(err)
		}
		if m == 2 && (len(rs) != 2 || rs[0].Score != rs[1].Score) {
			t.Fatalf("fixture does not tie: %s", got)
		}
		if len(prev) > len(rs) || !reflect.DeepEqual(rs[:len(prev)], prev) {
			t.Fatalf("top-%d %v is not a prefix of top-%d %v", m-1, prev, m, rs)
		}
		prev = rs
	}
}

// FuzzCoordinatorMerge draws per-shard ranked lists (four distinct
// scores, so ties are common; document names unrelated to the shard or
// the position) and failed shards, answers each shard's
// page as the first m entries of its list, and checks the merge: it is
// the union's top-m in (score, shard, position) order, a prefix of the
// merge at m+1, and holds no result of a failed shard.
func FuzzCoordinatorMerge(f *testing.F) {
	f.Add([]byte{2, 0x03, 3, 1, 1, 0x02, 1, 3}, uint8(2))
	f.Add([]byte{3, 0x84, 3, 3, 2, 0, 0x05, 3, 3, 1, 1, 0, 0x01, 2}, uint8(3))
	f.Add([]byte{0, 0x0f, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(11))
	f.Fuzz(func(t *testing.T, data []byte, mb uint8) {
		if len(data) == 0 {
			return
		}
		m := int(mb%12) + 1
		shards := int(data[0]%4) + 1
		data = data[1:]
		lists := make([][]xrank.SearchResult, shards)
		failed := make([]bool, shards)
		var wantFailed []int
		for s := range lists {
			if len(data) > 0 {
				failed[s] = data[0]&0x80 != 0
				for n := int(data[0] & 0x0f); n > 0 && len(data) > 1; n-- {
					data = data[1:]
					lists[s] = append(lists[s], xrank.SearchResult{Path: fmt.Sprintf("s%d", s),
						Doc: fmt.Sprintf("d%02d.xml", data[0]>>2), Score: float64(data[0]%4) / 4})
				}
				data = data[1:]
			}
			sort.SliceStable(lists[s], func(i, j int) bool { return lists[s][i].Score > lists[s][j].Score })
			for i := range lists[s] {
				lists[s][i].DeweyID = strconv.Itoa(i)
			}
			if failed[s] {
				wantFailed = append(wantFailed, s)
			}
		}
		outcomes := func(m int) []shardOutcome {
			out := make([]shardOutcome, shards)
			for s := range out {
				out[s].shard = s
				if failed[s] {
					out[s].err = errors.New("shard down")
					continue
				}
				out[s].page = &shardPage{Results: lists[s][:min(m, len(lists[s]))]}
			}
			return out
		}
		got, stats := merge(outcomes(m), m)
		next, _ := merge(outcomes(m+1), m+1)

		type entry struct {
			r          xrank.SearchResult
			shard, pos int
		}
		var union []entry
		for s, l := range lists {
			for i, r := range l {
				if !failed[s] {
					union = append(union, entry{r, s, i})
				}
			}
		}
		sort.Slice(union, func(i, j int) bool {
			a, b := union[i], union[j]
			if a.r.Score != b.r.Score {
				return a.r.Score > b.r.Score
			}
			if a.shard != b.shard {
				return a.shard < b.shard
			}
			return a.pos < b.pos
		})
		want := []xrank.SearchResult{}
		for i := 0; i < m && i < len(union); i++ {
			want = append(want, union[i].r)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("m=%d: merge\n got %v\nwant %v", m, got, want)
		}
		if len(next) < len(got) || !reflect.DeepEqual(next[:len(got)], got) {
			t.Fatalf("top-%d %v is not a prefix of top-%d %v", m, got, m+1, next)
		}
		for _, r := range got {
			if s, _ := strconv.Atoi(strings.TrimPrefix(r.Path, "s")); failed[s] {
				t.Fatalf("merge holds %v from failed shard %d", r, s)
			}
		}
		if !reflect.DeepEqual(stats.FailedShards, wantFailed) || stats.Degraded != (wantFailed != nil) {
			t.Fatalf("failed shards %v (degraded %v), want %v", stats.FailedShards, stats.Degraded, wantFailed)
		}
	})
}
