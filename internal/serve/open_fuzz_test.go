package serve

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"sprinkler"
)

// FuzzOpen decodes untrusted open JSON the way the daemon does and
// resolves it with sessionCfg. An input whose platform has at most 4
// chips is then opened through Server.Open, submits a fixed mixed batch,
// advances 10 ms and drains under a 5 s bound: an open may be refused,
// but no input may panic. Larger platforms stop at validation, because a
// 1024-chip device costs hundreds of MB per input. The corpus under
// testdata/fuzz holds an outage period and a read-retry ladder that once
// carried event times past the int64 clock.
func FuzzOpen(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"name":"a","chips":4,"queue":8,"scheduler":"VAS","seed":3}`,
		`{"chips":2,"gcStress":true,"collectSeries":true,"seriesWindow":64}`,
		`{"chips":4,"faults":{"readFailProb":0.3,"programFailProb":0.2,"readRetryMax":3,"readRetryMult":2,"rewriteMax":3,"outagePeriodNS":200000,"outageDurNS":50000,"seed":17}}`,
		`{"chips":1024}`,
		`{"queue":-1}`,
		`{"warmState":"aged.snap"}`,
	} {
		f.Add([]byte(seed))
	}
	// testOptions runs no idle janitor, so the server needs no Close.
	srv := NewServer(testOptions())
	var batch []sprinkler.Request
	for i := 0; i < 16; i++ {
		batch = append(batch, sprinkler.Request{
			ArrivalNS: int64(i) * 500_000,
			LPN:       int64(i * 37 % 64 * 16),
			Pages:     1 + i%8,
			Write:     i%3 != 0,
			FUA:       i%5 == 0,
		})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var req OpenRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		cfg, err := srv.sessionCfg(req, nil)
		if err != nil || cfg.Channels*cfg.ChipsPerChan > 4 {
			return
		}
		sess, _, err := srv.Open(req)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := sess.lock(ctx); err != nil {
			t.Fatal(err)
		}
		defer sess.unlock()
		for _, r := range batch {
			sess.sess.Submit(r)
		}
		if err := sess.sess.Advance(int64(10 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		srv.drainSession(ctx, sess)
	})
}
