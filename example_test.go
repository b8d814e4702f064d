package jim_test

import (
	"errors"
	"fmt"
	"strings"

	jim "repro"
)

// ExampleNewSession is the library quickstart: open a session over a
// denormalized instance, loop proposals through a labeler (here a goal
// oracle; in an application, a human), and read the inferred join
// predicate.
func ExampleNewSession() {
	const csv = `From,To,Airline,City,Discount
Paris,Lille,AF,NYC,AA
Paris,Lille,AF,Paris,None
Paris,Lille,AF,Lille,AF
Lille,NYC,AA,NYC,AA
Lille,NYC,AA,Paris,None
Lille,NYC,AA,Lille,AF
NYC,Paris,AA,NYC,AA
NYC,Paris,AA,Paris,None
NYC,Paris,AA,Lille,AF
`
	rel, err := jim.ReadCSV(strings.NewReader(csv))
	if err != nil {
		panic(err)
	}
	// The user's intent, which the dialogue will reconstruct: tuples
	// where the flight's destination is the hotel's city.
	goal, err := jim.PredicateFromAtoms(rel.Schema(), [][2]string{{"To", "City"}})
	if err != nil {
		panic(err)
	}
	sess, err := jim.NewSession(rel)
	if err != nil {
		panic(err)
	}
	questions := 0
	for {
		i, ok := sess.Propose()
		if !ok {
			break
		}
		label := jim.Negative
		if jim.Selects(goal, rel.Tuple(i)) {
			label = jim.Positive
		}
		if _, err := sess.Answer(i, label); err != nil {
			panic(err)
		}
		questions++
	}
	fmt.Printf("converged after %d questions\n", questions)
	fmt.Println(sess.Result().FormatAtoms(rel.Schema().Names()))
	// Output:
	// converged after 4 questions
	// To=City
}

// ExampleSession_Append shows streaming ingestion: rows arriving
// mid-session are parsed into a batch under the session's pinned
// typing, and Append adopts the batch and classifies its tuples
// against the current hypothesis the moment they land — arrivals
// whose label is already implied never reach the user.
func ExampleSession_Append() {
	rel, typing, err := jim.ReadCSVTyped(strings.NewReader("a,b,c\n1,1,2\n1,2,2\n"), jim.CSVOptions{})
	if err != nil {
		panic(err)
	}
	sess, err := jim.NewSession(rel, jim.WithTyping(typing))
	if err != nil {
		panic(err)
	}
	// Label what we have: a=b holds on the positive tuple only.
	if _, err := sess.Answer(0, jim.Positive); err != nil {
		panic(err)
	}
	if _, err := sess.Answer(1, jim.Negative); err != nil {
		panic(err)
	}
	// More data arrives. ParseRows decodes it into a batch exactly
	// like the creation CSV; Append adopts the batch and classifies it
	// on landing.
	batch, err := sess.ParseRows([][]string{{"3", "3", "4"}, {"3", "4", "4"}})
	if err != nil {
		panic(err)
	}
	implied, err := sess.Append(batch)
	if err != nil {
		panic(err)
	}
	p := sess.Progress()
	fmt.Printf("instance grew to %d tuples; %d arrivals labeled on arrival\n", p.Total, len(implied))
	fmt.Println(sess.Result().FormatAtoms(sess.Relation().Schema().Names()))
	// Output:
	// instance grew to 4 tuples; 2 arrivals labeled on arrival
	// a=b
}

// ExampleError shows the error taxonomy: every failure carries a
// stable code, matchable with errors.Is against the package sentinels
// or switchable via CodeOf — the same codes the HTTP envelope serves,
// so embedded and remote callers dispatch on identical constants.
func ExampleError() {
	rel, err := jim.ReadCSV(strings.NewReader("a,b\n1,1\n1,2\n"))
	if err != nil {
		panic(err)
	}
	sess, err := jim.NewSession(rel)
	if err != nil {
		panic(err)
	}
	if _, err := sess.Answer(0, jim.Positive); err != nil {
		panic(err)
	}
	// Relabeling an explicitly labeled tuple is refused with a typed
	// error.
	_, err = sess.Answer(0, jim.Negative)
	fmt.Println(errors.Is(err, jim.ErrAlreadyLabeled))
	fmt.Println(jim.CodeOf(err))
	// An out-of-range index carries a different code.
	_, err = sess.Answer(99, jim.Positive)
	fmt.Println(jim.CodeOf(err))
	// Unknown strategies are rejected at session construction.
	_, err = jim.NewSession(rel.Clone(), jim.WithStrategy("nope"))
	fmt.Println(errors.Is(err, jim.ErrUnknownStrategy))
	// Output:
	// true
	// already_labeled
	// out_of_range
	// true
}
