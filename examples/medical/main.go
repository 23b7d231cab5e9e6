// Medical folder — the paper's motivating healthcare scenario: "the
// exchange of medical information is traditionally ruled by predefined
// sharing policies, [but] these rules may suffer exceptions in particular
// situations (e.g., in case of emergency) and may evolve over time".
//
// One encrypted folder serves three very different audiences: the
// treating doctor (everything but administrative identifiers), a
// researcher (only asthma visits, no identities), and an emergency
// responder (exactly the emergency record and the patient's name). The
// emergency profile also shows the skip index at work: visit subtrees can
// never satisfy its rules, so the card never fetches them.
//
// Run with: go run ./examples/medical
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
)

func main() {
	folder := workload.MedicalFolder(workload.MedicalConfig{
		Seed: 7, Patients: 12, VisitsPerPatient: 4,
	})
	key, err := secure.NewDocKey()
	if err != nil {
		log.Fatal(err)
	}
	store := dsp.NewMemStore()
	publisher := &proxy.Publisher{Store: store}
	if _, err := publisher.PublishDocument(folder, docenc.EncodeOptions{
		DocID: "folder", Key: key, MinSkipBytes: 32,
	}); err != nil {
		log.Fatal(err)
	}

	profiles := map[string]string{
		"doctor": `
subject doctor
doc folder
default -
+ //patient
- //ssn
- //contact`,
		"researcher": `
subject researcher
doc folder
default -
+ //visit[diagnosis = "asthma"]
- //report`,
		"emergency": `
subject emergency
doc folder
default -
+ //emergency
+ //patient/name`,
	}

	for _, who := range []string{"doctor", "researcher", "emergency"} {
		rs := workload.MustParseRules(profiles[who])
		if err := publisher.GrantRules(key, rs); err != nil {
			log.Fatal(err)
		}
		sess := proxy.NewSession(store, card.New(card.EGate), soe.Options{}, 0)
		if err := sess.Provision("folder", key); err != nil {
			log.Fatal(err)
		}
		if err := sess.InstallRules(who, "folder"); err != nil {
			log.Fatal(err)
		}

		query := ""
		if who == "emergency" {
			// The responder asks for one patient, by the card.
			query = `//patient[@id = "p003"]`
		}
		res, err := sess.Query(who, "folder", query)
		sess.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s view ===\n", who)
		fmt.Printf("fetched %d/%d blocks, skipped %d subtrees, card RAM peak %dB\n",
			res.Stats.BlocksFetched, res.Stats.BlocksTotal,
			res.Stats.Session.Core.SkippedSubtrees, res.Stats.Session.RAMPeak)
		if who == "emergency" {
			fmt.Println(res.XML())
		} else {
			summarize(res)
		}
		fmt.Println()
	}
}

func summarize(res *proxy.Result) {
	tree := res.Tree()
	if tree == nil {
		fmt.Println("(nothing visible)")
		return
	}
	fmt.Printf("visible: %d patients, %d visits, %d diagnoses, %d ssn\n",
		len(tree.Find("patient")), len(tree.Find("visit")),
		len(tree.Find("diagnosis")), len(tree.Find("ssn")))
}
