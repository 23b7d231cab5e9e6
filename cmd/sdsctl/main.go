// Command sdsctl drives the full platform from the command line: publish
// encrypted documents, grant rule sets, and query through a simulated
// smart card — against either an in-process store or a running dspd.
//
// Usage:
//
//	sdsctl [-store ADDR] [-conns N] [-profile egate|modern] <command> [args]
//
// Commands:
//
//	publish    -doc ID -in FILE -seed SEED     encrypt & upload an XML file
//	republish  -doc ID -in FILE -seed SEED     delta re-publish a new version
//	                                           (only changed blocks travel)
//	grant      -doc ID -seed SEED -rules FILE  seal & upload a rule set
//	query      -doc ID -seed SEED -subject S [-query XPATH] [-noskip] [-prefetch K]
//	ls                                         list stored documents
//	stats      [-gateway URL]                  pretty-print a gatewayd /stats
//	                                           snapshot, or (with the global
//	                                           -store ADDR) a dspd store snapshot
//
// The document key is derived from -seed (a stand-in for the PKI
// exchange, which examples/collaborative demonstrates in full).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strings"

	"repro/internal/accessrule"
	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/proxy"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/xmlstream"
)

// statePath is the durable store directory (per-shard WAL segments +
// checkpoints, see dsp.FileStore) consecutive sdsctl invocations
// compose through: publish, then grant, then query. A directory in the
// older single-file layout is migrated to segments on first open.
const statePath = "sdsctl.store"

func main() {
	log.SetFlags(0)
	log.SetPrefix("sdsctl: ")

	storeAddr := flag.String("store", "", "dspd address (empty: local file-backed store)")
	conns := flag.Int("conns", 1, "pooled connections to the dspd (with -store)")
	profile := flag.String("profile", "egate", "card profile: egate or modern")
	flag.Parse()
	if flag.NArg() < 1 {
		log.Fatal("missing command (publish, republish, grant, query, ls)")
	}

	cmd := flag.Arg(0)
	args := flag.Args()[1:]

	// stats talks to running daemons, never the local state directory, so
	// it is handled before a store is opened (or locked).
	if cmd == "stats" {
		runStats(args, *storeAddr, *conns)
		return
	}

	store, closeStore := openStore(*storeAddr, *conns)
	defer closeStore()

	switch cmd {
	case "publish":
		fs := flag.NewFlagSet("publish", flag.ExitOnError)
		docID := fs.String("doc", "", "document id")
		in := fs.String("in", "", "XML file")
		seed := fs.String("seed", "", "key seed")
		block := fs.Int("block", docenc.DefaultBlockPlain, "plaintext block size")
		_ = fs.Parse(args)
		requireAll(map[string]string{"doc": *docID, "in": *in, "seed": *seed})
		src, err := os.ReadFile(*in)
		if err != nil {
			log.Fatal(err)
		}
		evs, err := xmlstream.Parse(src)
		if err != nil {
			log.Fatal(err)
		}
		tree, err := xmlstream.BuildTree(evs)
		if err != nil {
			log.Fatal(err)
		}
		pub := &proxy.Publisher{Store: store}
		info, err := pub.PublishDocument(tree, docenc.EncodeOptions{
			DocID: *docID, Key: secure.KeyFromSeed(*seed), BlockPlain: *block,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("published %s: %d nodes, %d blocks, %d stored bytes (index %d, dict %d)\n",
			*docID, info.Nodes, (info.PayloadBytes+*block-1)/(*block), info.StoredBytes,
			info.IndexBytes, info.DictBytes)

	case "republish":
		fs := flag.NewFlagSet("republish", flag.ExitOnError)
		docID := fs.String("doc", "", "document id")
		in := fs.String("in", "", "XML file (the new version)")
		seed := fs.String("seed", "", "key seed")
		_ = fs.Parse(args)
		requireAll(map[string]string{"doc": *docID, "in": *in, "seed": *seed})
		src, err := os.ReadFile(*in)
		if err != nil {
			log.Fatal(err)
		}
		evs, err := xmlstream.Parse(src)
		if err != nil {
			log.Fatal(err)
		}
		tree, err := xmlstream.BuildTree(evs)
		if err != nil {
			log.Fatal(err)
		}
		pub := &proxy.Publisher{Store: store}
		ri, err := pub.Republish(tree, docenc.EncodeOptions{
			DocID: *docID, Key: secure.KeyFromSeed(*seed),
		})
		if err != nil {
			log.Fatal(err)
		}
		how := fmt.Sprintf("%d/%d blocks in %d runs", ri.ChangedBlocks, ri.TotalBlocks, ri.ChangedRuns)
		if ri.Fallback {
			how = "whole container (store lacks the patch protocol)"
		}
		fmt.Printf("republished %s at version %d: %s, %d bytes uploaded\n",
			*docID, ri.Version, how, ri.BytesUploaded)

	case "grant":
		fs := flag.NewFlagSet("grant", flag.ExitOnError)
		docID := fs.String("doc", "", "document id")
		seed := fs.String("seed", "", "key seed")
		rulesFile := fs.String("rules", "", "rule-set file (textual format)")
		_ = fs.Parse(args)
		requireAll(map[string]string{"doc": *docID, "seed": *seed, "rules": *rulesFile})
		text, err := os.ReadFile(*rulesFile)
		if err != nil {
			log.Fatal(err)
		}
		rs, err := accessrule.ParseSet(string(text))
		if err != nil {
			log.Fatal(err)
		}
		rs.DocID = *docID
		pub := &proxy.Publisher{Store: store}
		if err := pub.GrantRules(secure.KeyFromSeed(*seed), rs); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("granted %d rules (version %d) to %s on %s\n",
			len(rs.Rules), rs.Version, rs.Subject, *docID)

	case "query":
		fs := flag.NewFlagSet("query", flag.ExitOnError)
		docID := fs.String("doc", "", "document id")
		seed := fs.String("seed", "", "key seed")
		subject := fs.String("subject", "", "subject")
		query := fs.String("query", "", "XPath query (optional)")
		noskip := fs.Bool("noskip", false, "disable the skip index")
		prefetch := fs.Int("prefetch", 0,
			"prefetching pipeline depth in blocks (0 = serial one-block round trips)")
		_ = fs.Parse(args)
		requireAll(map[string]string{"doc": *docID, "seed": *seed, "subject": *subject})
		sess := proxy.NewSession(store, card.New(cardProfile(*profile)),
			soe.Options{DisableSkip: *noskip}, *prefetch)
		defer sess.Close()
		if err := sess.Provision(*docID, secure.KeyFromSeed(*seed)); err != nil {
			log.Fatal(err)
		}
		if err := sess.InstallRules(*subject, *docID); err != nil {
			log.Fatal(err)
		}
		res, err := sess.Query(*subject, *docID, *query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.XML())
		fmt.Fprintf(os.Stderr,
			"blocks %d/%d (%d speculative wasted), skipped %d subtrees, card RAM peak %dB, simulated %s time %v\n",
			res.Stats.BlocksFetched, res.Stats.BlocksTotal, res.Stats.BlocksWasted,
			res.Stats.Session.Core.SkippedSubtrees, res.Stats.Session.RAMPeak,
			cardProfile(*profile).Name, res.Stats.Time.Total().Round(1e6))

	case "ls":
		ids, err := store.ListDocuments()
		if err != nil {
			log.Fatal(err)
		}
		for _, id := range ids {
			h, err := store.Header(id)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-20s v%-3d %6d blocks  %8d payload bytes\n",
				id, h.Version, h.NumBlocks(), h.PayloadLen)
		}

	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

// runStats fetches and pretty-prints an observability snapshot: a
// gatewayd's /stats endpoint (-gateway URL) or a dspd's store stats
// (the global -store ADDR). With both unset it explains itself.
func runStats(args []string, storeAddr string, conns int) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	gatewayURL := fs.String("gateway", "", "gatewayd stats URL (e.g. http://localhost:7081/stats)")
	_ = fs.Parse(args)

	switch {
	case *gatewayURL != "":
		u := *gatewayURL
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		if parsed, err := url.Parse(u); err == nil && parsed.Path == "" {
			u += "/stats"
		}
		resp, err := http.Get(u)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("%s: %s: %s", u, resp.Status, body)
		}
		printJSON(body)

	case storeAddr != "":
		client, err := dsp.Dial(storeAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		st, err := client.StoreStats()
		if err != nil {
			log.Fatal(err)
		}
		js, err := json.Marshal(st)
		if err != nil {
			log.Fatal(err)
		}
		printJSON(js)

	default:
		log.Fatal("stats needs a target: -gateway URL (gatewayd) or the global -store ADDR (dspd)")
	}
}

// printJSON re-indents and prints a JSON document.
func printJSON(body []byte) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, body, "", "  "); err != nil {
		// Not JSON? Show it anyway — a stats command must not hide what
		// the server actually said.
		fmt.Printf("%s\n", body)
		return
	}
	fmt.Println(buf.String())
}

func cardProfile(name string) card.Profile {
	switch name {
	case "egate":
		return card.EGate
	case "modern":
		return card.Modern
	default:
		log.Fatalf("unknown profile %q", name)
		return card.Profile{}
	}
}

func requireAll(fields map[string]string) {
	for name, v := range fields {
		if v == "" {
			log.Fatalf("missing -%s", name)
		}
	}
}

func openStore(addr string, conns int) (dsp.Store, func()) {
	if addr != "" {
		if conns > 1 {
			pool, err := dsp.DialPool(addr, conns)
			if err != nil {
				log.Fatal(err)
			}
			return pool, func() { _ = pool.Close() }
		}
		client, err := dsp.Dial(addr)
		if err != nil {
			log.Fatal(err)
		}
		return client, func() { _ = client.Close() }
	}
	// Earlier sdsctl versions kept the state in a flat file at the
	// same path; the durable store needs a directory there. Explain
	// instead of dying on a cryptic mkdir error.
	if fi, err := os.Stat(statePath); err == nil && !fi.IsDir() {
		log.Fatalf("%s is a store file from an older sdsctl (single-image format); "+
			"remove it (and re-publish) to let the durable store use the path as a directory",
			statePath)
	}
	// Single-shot invocations keep the WAL small, so checkpointing on
	// every exit trades a little write-off for replay-free next starts.
	fs, err := dsp.NewFileStore(statePath)
	if errors.Is(err, dsp.ErrStoreLocked) {
		log.Fatalf("%s is open in another process (a dspd or a concurrent sdsctl); "+
			"stop it or point this invocation elsewhere: %v", statePath, err)
	}
	if err != nil {
		log.Fatal(err)
	}
	return fs, func() {
		if err := fs.Checkpoint(); err != nil {
			log.Printf("checkpointing store: %v", err)
		}
		if err := fs.Close(); err != nil {
			log.Printf("closing store: %v", err)
		}
	}
}
