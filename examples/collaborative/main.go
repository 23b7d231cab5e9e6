// Collaborative data sharing — the demonstration's first application:
// "collaborative works among a community of users" with policies that
// evolve as the community does, without ever re-encrypting the document.
//
// A community shares an agenda on an untrusted store. Each member's card
// enforces member-specific rules. The owner then changes the policy
// (revokes a member's access to phone numbers) by uploading one small
// re-sealed rule set — the document's encryption is untouched, and a
// malicious store replaying the old rights is rejected by the card.
//
// Run with: go run ./examples/collaborative
package main

import (
	"fmt"
	"log"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/pki"
	"repro/internal/proxy"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/workload"
)

func main() {
	// The community's PKI (simulated, as in the demonstration itself).
	authority := pki.NewAuthority()
	owner, err := authority.Register("alice")
	check(err)
	_, err = authority.Register("bob")
	check(err)
	bobPrincipal, err := authority.Lookup("bob")
	check(err)

	// Alice generates the agenda and the document key, publishes the
	// encrypted agenda, and wraps the key for Bob through the PKI.
	agenda := workload.Agenda(workload.AgendaConfig{Seed: 14, Members: 4, EventsPerMember: 3})
	key, err := secure.NewDocKey()
	check(err)

	store := dsp.NewMemStore()
	publisher := &proxy.Publisher{Store: store}
	info, err := publisher.PublishDocument(agenda, docenc.EncodeOptions{DocID: "agenda", Key: key})
	check(err)
	fmt.Printf("alice published the agenda: %d stored bytes on the untrusted store\n", info.StoredBytes)

	wrapped, err := authority.Wrap(owner, "bob", "agenda", key)
	check(err)

	// Version 1 of Bob's rights: everything except private events.
	bobRulesV1 := workload.MustParseRules(`
subject bob
doc agenda
default +
- //event[visibility = "private"]`)
	bobRulesV1.Version = 1
	check(publisher.GrantRules(key, bobRulesV1))

	// --- Bob's side -------------------------------------------------------
	bobKey, err := authority.Unwrap(bobPrincipal, wrapped)
	check(err)
	bobCard := card.New(card.EGate)
	bobSession := proxy.NewSession(store, bobCard, soe.Options{}, 0)
	defer bobSession.Close()
	check(bobSession.Provision("agenda", bobKey))
	check(bobSession.InstallRules("bob", "agenda"))

	res, err := bobSession.Query("bob", "agenda", "//member[@user = \"user01\"]")
	check(err)
	fmt.Println("\nbob's view of user01 (rights v1):")
	fmt.Println(res.XML())

	// --- The policy evolves ------------------------------------------------
	// Alice revokes Bob's access to phone numbers: ONE sealed blob is
	// re-uploaded; zero document bytes are re-encrypted.
	bobRulesV2 := workload.MustParseRules(`
subject bob
doc agenda
default +
- //event[visibility = "private"]
- //phone`)
	bobRulesV2.Version = 2
	check(publisher.GrantRules(key, bobRulesV2))
	check(bobSession.InstallRules("bob", "agenda"))

	res, err = bobSession.Query("bob", "agenda", "//member[@user = \"user01\"]/profile")
	check(err)
	fmt.Println("bob's view of user01's profile (rights v2 — phone revoked):")
	fmt.Println(res.XML())

	// --- A malicious store replays the old rights --------------------------
	stale, err := card.SealRuleSet(key, bobRulesV1)
	check(err)
	if err := bobCard.PutSealedRuleSet("agenda", "bob", stale); err != nil {
		fmt.Printf("\nreplaying the v1 rights blob: REJECTED by the card (%v)\n", err)
	} else {
		log.Fatal("BUG: the card accepted a rollback")
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
