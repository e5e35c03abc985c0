package checkpoint

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode drives the container reader with arbitrary bytes. The
// reader fronts every durable artifact in the tree (simulation
// checkpoints, job journals, campaign journals), and the disk chaos
// layer deliberately feeds it torn and bit-flipped images — so its
// contract is totality: Decode returns a container or an error, never
// panics or over-reads, for any input. A container that does decode
// must re-encode to bytes that decode again (the trailer CRC makes
// byte equality too strong only for inputs Decode normalizes away).
func FuzzDecode(f *testing.F) {
	good := New("skyran/fuzz", 1, 0xfeedface)
	good.Add("meta", []byte(`{"id":"c1"}`))
	good.Add("result-7", []byte(`{"seed":7}`))
	if b, err := good.Encode(); err == nil {
		f.Add(b)
		// Torn prefixes and a flipped byte: the shapes the chaos layer
		// actually produces.
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	empty := New("skyran/empty", 2, 0)
	if b, err := empty.Encode(); err == nil {
		f.Add(b)
	}
	f.Add([]byte("SKYRBOX1"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			return
		}
		for _, sec := range c.Sections() {
			if _, ok := c.Section(sec.Name); !ok {
				t.Fatalf("listed section %q not retrievable", sec.Name)
			}
		}
		b, err := c.Encode()
		if err != nil {
			t.Fatalf("decoded container does not re-encode: %v", err)
		}
		c2, err := Decode(b)
		if err != nil {
			t.Fatalf("re-encoded container does not decode: %v", err)
		}
		if c2.Kind != c.Kind || c2.Version != c.Version || c2.Fingerprint != c.Fingerprint {
			t.Fatal("round trip changed the header")
		}
		if len(c2.Sections()) != len(c.Sections()) {
			t.Fatal("round trip changed the section count")
		}
		for i, sec := range c.Sections() {
			got := c2.Sections()[i]
			if got.Name != sec.Name || !bytes.Equal(got.Data, sec.Data) {
				t.Fatalf("round trip changed section %q", sec.Name)
			}
		}
	})
}

// FuzzJournalRecord drives the journal record reader — the verifier
// behind both the job and the campaign journal's Load — with arbitrary
// bytes. It must return a record or an error, never panic, and a record
// it accepts must re-encode to bytes it accepts again unchanged.
func FuzzJournalRecord(f *testing.F) {
	jl := &Journal{prefix: "j", kind: KindJobJournal, version: 1}
	good := New(KindJobJournal, 1, 0)
	good.Add("job", []byte(`{"id":"j1","spec":{"seed":7},"state":"queued"}`))
	if b, err := good.Encode(); err == nil {
		f.Add(b)
		f.Add(b[:len(b)/2])
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)/2] ^= 0x01
		f.Add(flipped)
	}
	for _, c := range []*Container{New(KindCampaignJournal, 1, 9), New(KindJobJournal, 2, 0)} {
		if b, err := c.Encode(); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		box, err := jl.decode(data)
		if err != nil {
			return
		}
		b, err := box.Encode()
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		again, err := jl.decode(b)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if !reflect.DeepEqual(again, box) {
			t.Fatal("round trip changed the record")
		}
	})
}
