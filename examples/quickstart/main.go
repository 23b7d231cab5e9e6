// Quickstart: the minimal end-to-end flow of the platform.
//
// A document owner encrypts an XML document and publishes it on the
// untrusted store (DSP); a user's card is provisioned with the document
// key and a rule set; the user queries the document through the card,
// which decrypts, verifies and filters the stream, returning only the
// authorized view.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/proxy"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

func main() {
	// --- The document owner's side -------------------------------------
	doc := mustParse(`
<library>
  <book shelf="A1">
    <title>Streaming access control</title>
    <price>42</price>
    <internal><purchase-cost>17</purchase-cost></internal>
  </book>
  <book shelf="B2">
    <title>Smart card engineering</title>
    <price>35</price>
    <internal><purchase-cost>11</purchase-cost></internal>
  </book>
</library>`)

	key, err := secure.NewDocKey()
	if err != nil {
		log.Fatal(err)
	}

	store := dsp.NewMemStore() // the untrusted DSP
	publisher := &proxy.Publisher{Store: store}
	info, err := publisher.PublishDocument(doc, docenc.EncodeOptions{
		DocID: "library",
		Key:   key,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published %q: %d nodes, %d stored bytes (%d of index)\n",
		"library", info.Nodes, info.StoredBytes, info.IndexBytes)

	// The owner grants a customer everything except the internal records.
	rules := workload.MustParseRules(`
subject customer
doc library
default +
- //internal`)
	if err := publisher.GrantRules(key, rules); err != nil {
		log.Fatal(err)
	}

	// --- The customer's side --------------------------------------------
	// The customer's smart card holds the document key (obtained out of
	// band — see the collaborative example for the PKI flow). The
	// customer's terminal keeps one session on the card for all its
	// queries.
	session := proxy.NewSession(store, card.New(card.EGate), soe.Options{}, 0)
	defer session.Close()
	if err := session.Provision("library", key); err != nil {
		log.Fatal(err)
	}
	if err := session.InstallRules("customer", "library"); err != nil {
		log.Fatal(err)
	}

	// Full authorized view.
	res, err := session.Query("customer", "library", "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nauthorized view:")
	fmt.Println(res.XML())

	// A pull query: only matching subtrees are delivered — and thanks to
	// the skip index, non-matching subtrees are never even fetched.
	res, err = session.Query("customer", "library", `//book[title = "Smart card engineering"]/price`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nquery result (//book[title = \"Smart card engineering\"]/price):")
	fmt.Println(res.XML())
	fmt.Printf("\nfetched %d of %d blocks; simulated e-gate time %v (transfer %v, crypto %v)\n",
		res.Stats.BlocksFetched, res.Stats.BlocksTotal,
		res.Stats.Time.Total().Round(1e6),
		res.Stats.Time.Transfer.Round(1e6),
		res.Stats.Time.Crypto.Round(1e6))
}

func mustParse(src string) *xmlstream.Node {
	evs, err := xmlstream.Parse([]byte(src))
	if err != nil {
		log.Fatal(err)
	}
	tree, err := xmlstream.BuildTree(evs)
	if err != nil {
		log.Fatal(err)
	}
	return tree
}
