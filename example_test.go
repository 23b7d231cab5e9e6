package sds_test

import (
	"fmt"
	"log"
	"strings"

	sds "repro"
)

// A reader's flow: the owner publishes a document and grants a subject
// its rights through one Publisher; the subject's card is provisioned
// once and queried through one held PullSession, closed when done.
func ExampleNewPullSession() {
	store := sds.NewMemStore()
	key := sds.KeyFromSeed("example")
	doc, err := sds.ParseXML([]byte(`<folder><patient><name>Ann</name><ssn>123</ssn></patient></folder>`))
	if err != nil {
		log.Fatal(err)
	}
	rules, err := sds.ParseRules("subject nurse\ndoc folder\ndefault +\n- //ssn")
	if err != nil {
		log.Fatal(err)
	}

	pub := &sds.Publisher{Store: store}
	if _, err := pub.PublishDocument(doc, sds.EncodeOptions{DocID: "folder", Key: key}); err != nil {
		log.Fatal(err)
	}
	if err := pub.GrantRules(key, rules); err != nil {
		log.Fatal(err)
	}

	sess := sds.NewPullSession(store, sds.NewCard(sds.EGate), sds.SessionOptions{}, 0)
	defer sess.Close()
	if err := sess.Provision("folder", key); err != nil {
		log.Fatal(err)
	}
	if err := sess.InstallRules("nurse", "folder"); err != nil {
		log.Fatal(err)
	}
	for _, query := range []string{"", "//name"} {
		res, err := sess.Query("nurse", "folder", query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.XML())
	}
	// Output:
	// <folder>
	//   <patient>
	//     <name>Ann</name>
	//   </patient>
	// </folder>
	// <folder>
	//   <patient>
	//     <name>Ann</name>
	//   </patient>
	// </folder>
}

// A writer's flow: one held Publisher streams the first version and
// re-publishes an edit as a block-level delta, diffing against the
// version it committed itself instead of reading it back.
func ExamplePublisher() {
	store := sds.NewMemStore()
	key := sds.KeyFromSeed("example")
	version := func(note string) *sds.Document {
		var b strings.Builder
		b.WriteString("<folder>")
		for i := range 40 {
			fmt.Fprintf(&b, "<visit><date>2005-06-%02d</date><note>routine check %d</note></visit>", i%28+1, i)
		}
		fmt.Fprintf(&b, "<summary>%s</summary></folder>", note)
		doc, err := sds.ParseXML([]byte(b.String()))
		if err != nil {
			log.Fatal(err)
		}
		return doc
	}

	pub := &sds.Publisher{Store: store}
	opts := sds.EncodeOptions{DocID: "folder", Key: key}
	if _, err := pub.PublishStream(version("stable"), opts); err != nil { // streaming first publish
		log.Fatal(err)
	}
	ri, err := pub.Republish(version("review"), opts) // delta: only changed blocks travel
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("version %d: %d of %d blocks changed\n", ri.Version, ri.ChangedBlocks, ri.TotalBlocks)
	// Output:
	// version 1: 1 of 13 blocks changed
}
