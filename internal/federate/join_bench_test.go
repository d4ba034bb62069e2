package federate

import (
	"context"
	"fmt"
	"testing"

	"mdm/internal/relalg"
	"mdm/internal/relalg/relalgtest"
)

// BenchmarkFederateJoinDrain is the federation layer's benchmark (ROADMAP
// aim 1): the plan shape the rewriter emits for a two-concept walk —
// π(π(players) ⋈ π(teams)) — drained row by row over sources already in
// memory, 10 000 probe rows against 1 000 build rows, one sub-benchmark
// per join-key shape.
func BenchmarkFederateJoinDrain(b *testing.B) {
	const players, teams = 10000, 1000
	p := relalg.NewRelation("id", "pName", "teamId", "teamCode", "league")
	for i := 0; i < players; i++ {
		t := i % teams
		p.MustAppend(relalg.Row{relalg.Int(int64(i)), relalg.String(fmt.Sprintf("Player %d", i)),
			relalg.Int(int64(t)), relalg.String(fmt.Sprintf("team-%d", t)), relalg.Int(int64(t % 20))})
	}
	tm := relalg.NewRelation("tid", "tCode", "tLeague", "tName")
	for t := 0; t < teams; t++ {
		tm.MustAppend(relalg.Row{relalg.Int(int64(t)), relalg.String(fmt.Sprintf("team-%d", t)),
			relalg.Int(int64(t % 20)), relalg.String(fmt.Sprintf("Team %d", t))})
	}
	left := relalg.NewProject(relalg.NewScan(relalgtest.NewMemSource("players", p)), "pName", "teamId", "teamCode", "league")
	right := relalg.NewProject(relalg.NewScan(relalgtest.NewMemSource("teams", tm)), "tid", "tCode", "tLeague", "tName")
	for _, c := range []struct {
		name string
		on   [][2]string
	}{
		{"int-key", [][2]string{{"teamId", "tid"}}},
		{"string-key", [][2]string{{"teamCode", "tCode"}}},
		{"two-col-key", [][2]string{{"teamId", "tid"}, {"league", "tLeague"}}},
	} {
		prog, err := Prepare(relalg.NewProject(relalg.NewJoin(left, right, c.on), "pName", "tName"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			ctx := context.Background()
			eng := NewEngine()
			b.ReportAllocs()
			for b.Loop() {
				cur, err := eng.RunProgram(ctx, prog, RunOpts{Limit: -1, Offset: -1})
				if err != nil {
					b.Fatal(err)
				}
				for cur.Next(ctx) {
				}
				if cur.Err() != nil || cur.Rows() != players {
					b.Fatalf("drained %d rows, err %v", cur.Rows(), cur.Err())
				}
			}
		})
	}
}
