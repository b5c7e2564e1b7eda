// Package wire is the versioned message codec the networked transport
// backends use. The in-memory transport.Network passes payloads between
// goroutines as plain `any` values; crossing a process boundary instead
// forces an explicit wire format: every message type that may appear as a
// call payload or response is registered here under a stable name, and one
// codec — Binary, the "PB" frame — carries it in a versioned envelope.
// Hot messages have hand-rolled binary forms; everything else rides a gob
// envelope inside the bin frame (see binary.go). Frames travel as
// length-prefixed stream frames (stream.go) over the streaming session
// engine, internal/transport/streamcore.
//
// # Versioning rules
//
//  1. Every frame starts with the envelope version (Version). A decoder
//     rejects frames whose version it does not know, and a stream frame
//     carrying flag bits it does not know — mixed-version fleets fail
//     loudly at the transport instead of corrupting task state.
//  2. Registered names are namespaced "papaya/v1/...". Adding a field to a
//     message is compatible: the gob envelope defaults missing fields to
//     their zero values, and a hand-rolled binary form appends new fields
//     at the end. Removing or renaming a field, or changing its type, is
//     not: register the changed message under a new name (a new "/v2/"
//     namespace or a new binary ID).
//  3. Handlers must treat zero values as "absent": empty slices and maps
//     may decode as nil.
//  4. Optional sender behaviour ships as a capability in the discovery
//     document peers exchange (Capabilities): a sender uses it only toward
//     peers that advertised it. Ack elision (StreamFlagNoAck) is the one
//     such capability today.
//
// The registry is populated by the packages that own the messages
// (internal/server registers the Section 4/6 control-plane payloads at init
// time), so the set of types that can cross the network is explicit and
// testable: see Names and NewValue.
package wire

import (
	"encoding/gob"
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Version is the envelope version every frame carries. Decoders reject any
// other value (versioning rule 1).
const Version = 1

// Capabilities is the capability half of a discovery document: the
// optional behaviours a peer accepts. Absent fields mean "not supported" —
// JSON zero values are the compatibility mechanism, per versioning rule 3.
type Capabilities struct {
	// AckElide reports that the peer's streaming server understands
	// StreamFlagNoAck frames: pipelined calls marked no-ack ride the
	// stream unanswered (the server replies only on failure, carried on
	// the next acknowledged frame). Absent means every streamed call is
	// acknowledged.
	AckElide bool `json:"ack_elide,omitempty"`
}

// Request is one RPC crossing the fabric: who is calling, which method, and
// the registered payload message.
type Request struct {
	From    string
	Method  string
	Payload any
}

// Response is the other half: either a payload or an error. Kind carries
// the transport-level error class so fault semantics (ErrCrashed,
// ErrDropped, ...) survive serialization; see transport.KindToError.
type Response struct {
	Payload any
	Err     string
	Kind    string
}

// --- registry ---

var (
	regMu      sync.RWMutex
	nameToType = make(map[string]reflect.Type)
	typeToName = make(map[reflect.Type]string)
)

// Register records a message type under a stable wire name and registers it
// with gob so it can travel inside bin's gob envelope. sample is a zero
// value of the concrete type (not a pointer). Registering the same pair
// twice is a no-op; re-registering a name for a different type panics, as
// does reusing a type under a second name — both are wire-format bugs.
func Register(name string, sample any) {
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("wire: cannot register nil")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := nameToType[name]; ok {
		if prev != t {
			panic(fmt.Sprintf("wire: name %q already registered for %v", name, prev))
		}
		return
	}
	if prev, ok := typeToName[t]; ok {
		panic(fmt.Sprintf("wire: type %v already registered as %q", t, prev))
	}
	nameToType[name] = t
	typeToName[t] = name
	// gob predefines the unnamed primitives (string, bool, ints, floats)
	// for interface transmission under their own names; re-registering them
	// panics. The registry entry above still records them.
	if t.PkgPath() != "" || t.Kind() == reflect.Struct || t.Kind() == reflect.Slice ||
		t.Kind() == reflect.Map || t.Kind() == reflect.Ptr || t.Kind() == reflect.Array {
		gob.RegisterName(name, sample)
	}
}

// Names returns every registered wire name, sorted — the explicit set of
// messages that may cross the network (round-trip tests enumerate it).
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(nameToType))
	for name := range nameToType {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewValue returns a new zero value of the type registered under name.
func NewValue(name string) (any, error) {
	regMu.RLock()
	t, ok := nameToType[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wire: unregistered message type %q", name)
	}
	return reflect.New(t).Elem().Interface(), nil
}

func lookupName(v any) (string, error) {
	regMu.RLock()
	name, ok := typeToName[reflect.TypeOf(v)]
	regMu.RUnlock()
	if !ok {
		return "", fmt.Errorf("wire: message type %T is not registered", v)
	}
	return name, nil
}
