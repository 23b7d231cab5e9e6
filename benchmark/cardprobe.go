package main

import (
	"fmt"
	"time"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/secure"
	"repro/internal/soe"
)

// driveCard is the hand-driven card session, the rung below any
// terminal: header in, then block by block whatever the card asks for,
// straight from memory, output records dropped. It appends the blocks
// the card asked for to fed and returns them with the number of events
// the evaluator handled.
func driveCard(c *card.Card, subject string, con *docenc.Container, header []byte, fed []int) ([]int, int64, error) {
	sess, err := soe.NewSession(c, con.Header.DocID, subject, nil, soe.Options{})
	if err != nil {
		return fed, 0, err
	}
	defer sess.Abort()
	if err := sess.LoadHeader(header); err != nil {
		return fed, 0, err
	}
	for idx := sess.NeedBlock(); idx >= 0; idx = sess.NeedBlock() {
		fed = append(fed, idx)
		if _, err := sess.Feed(idx, con.Blocks[idx]); err != nil {
			return fed, 0, err
		}
	}
	if !sess.Done() {
		return fed, 0, fmt.Errorf("card session ended before the document did")
	}
	st := sess.Stats().Core
	return fed, int64(st.Opens + st.Values + st.Closes), nil
}

// decryptRun is the size of the runs the decrypt rung hands to
// BlockContext.DecryptBlocks — the pull pipeline's prefetch depth.
const decryptRun = 8

// decryptFed verifies and decrypts the blocks a card session asked for,
// in contiguous runs of at most decryptRun, through the card's cipher
// context.
func decryptFed(c *card.Card, con *docenc.Container, fed []int) error {
	id := con.Header.DocID
	ctx, err := c.DecryptContext(id)
	if err != nil {
		return err
	}
	buf := secure.GetRunBuffer()
	defer func() { secure.PutRunBuffer(buf) }()
	var gens [decryptRun]uint32
	for at := 0; at < len(fed); {
		n := 1
		for at+n < len(fed) && n < decryptRun && fed[at+n] == fed[at]+n {
			n++
		}
		for k := 0; k < n; k++ {
			gens[k] = con.Header.BlockGen(fed[at] + k)
		}
		if _, buf, err = ctx.DecryptBlocks(buf, id, uint32(fed[at]), gens[:n], con.Blocks[fed[at]:fed[at]+n]); err != nil {
			return err
		}
		at += n
	}
	return nil
}

// cardRungs is what the card-side rungs of a ladder accumulate.
type cardRungs struct {
	// fed[i] lists the blocks the card asked for in operation i.
	fed [][]int
	// evaluated counts the events the evaluator handled, skipped
	// subtrees not included; offered the blocks of the documents read.
	evaluated, offered int64
}

// drive runs operation i's card session and keeps what it consumed.
func (cr *cardRungs) drive(i int, c *card.Card, subject string, con *docenc.Container, header []byte) error {
	fed, evaluated, err := driveCard(c, subject, con, header, cr.fed[i][:0])
	cr.fed[i] = fed
	cr.evaluated += evaluated
	cr.offered += int64(len(con.Blocks))
	return err
}

// metrics adds the card-side layer metrics of a ladder whose spans for
// the card session, the decryption and the filter are in the layers
// "soe", "secure" and "core".
func (cr *cardRungs) metrics(m map[string]float64, total, self map[string][]time.Duration) {
	fed := 0
	for _, f := range cr.fed {
		fed += len(f)
	}
	var decrypt time.Duration
	for _, t := range total["secure"] {
		decrypt += t
	}
	m["soe.feed_us"] = us(medianDur(self["soe"]))
	m["soe.blocks_skipped_ratio"] = 1 - ratio(float64(fed), float64(cr.offered))
	m["secure.decrypt_us_per_block"] = ratio(us(decrypt), float64(fed))
	m["core.filter_us"] = us(medianDur(total["core"]))
	m["core.events_per_query"] = ratio(float64(cr.evaluated), float64(len(cr.fed)))
}
