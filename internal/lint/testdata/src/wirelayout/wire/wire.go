// Package wire is a golden fixture for the wirelayout analyzer's stream
// protocol checks: the hello codec agrees with helloBodySize, while the
// batch-result encoder writes 13 bytes against a seeded
// batchOKResultSize of 12 — drift it must report.
package wire

import "encoding/binary"

var be = binary.BigEndian

const (
	helloBodySize     = 12
	batchOKResultSize = 12 // seeded drift: the codec touches 13
)

// putHello writes version, max frame, window: 12 bytes, consistent.
func putHello(b []byte, version, maxFrame, window uint32) {
	be.PutUint32(b[0:], version)
	be.PutUint32(b[4:], maxFrame)
	be.PutUint32(b[8:], window)
}

// readHelloBody reads the same 12 bytes: consistent.
func readHelloBody(b []byte) (version, maxFrame, window uint32) {
	version = be.Uint32(b[0:])
	maxFrame = be.Uint32(b[4:])
	window = be.Uint32(b[8:])
	return
}

// putBatchOK writes status + partition + offset = 13 bytes; the constant
// says 12.
func putBatchOK(b []byte, part int32, off int64) { // want "putBatchOK touches 13 bytes of fixed layout but batchOKResultSize = 12"
	b[0] = 0
	be.PutUint32(b[1:], uint32(part))
	be.PutUint64(b[5:], uint64(off))
}
