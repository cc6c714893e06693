package pirte

import (
	"encoding/binary"
	"fmt"
)

// Formats name the payload codecs a virtual port applies when translating
// between the plug-in's 64-bit words and the SW-C port byte format. "The
// plug-in and SW-C ports can have completely different formats, as long as
// the PIRTE is able to translate between these formats in its virtual
// ports" (paper section 3.1.3).
const (
	// FormatI64 is the default: 8-byte big-endian two's complement.
	FormatI64 = "i64be"
	// FormatI32 is 4-byte big-endian.
	FormatI32 = "i32be"
	// FormatI16 is 2-byte big-endian, e.g. the wheel angle of the model
	// car.
	FormatI16 = "i16be"
	// FormatI8 is a single signed byte.
	FormatI8 = "i8"
	// FormatU8 is a single unsigned byte.
	FormatU8 = "u8"
)

// encodeValueTo renders a plug-in word in the named format into the
// caller's scratch buffer; the returned slice aliases it and is only
// valid until the next encode. Receivers on the write path (the RTE)
// copy on delivery, so the data plane encodes without allocating.
func encodeValueTo(buf *[8]byte, format string, v int64) ([]byte, error) {
	switch format {
	case "", FormatI64:
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		return buf[:8], nil
	case FormatI32:
		binary.BigEndian.PutUint32(buf[:4], uint32(v))
		return buf[:4], nil
	case FormatI16:
		binary.BigEndian.PutUint16(buf[:2], uint16(v))
		return buf[:2], nil
	case FormatI8:
		buf[0] = byte(int8(v))
		return buf[:1], nil
	case FormatU8:
		buf[0] = byte(uint8(v))
		return buf[:1], nil
	}
	return nil, fmt.Errorf("pirte: unknown virtual port format %q", format)
}

// encodeValue renders a plug-in word in the named format into a fresh
// buffer (cold paths and tests).
func encodeValue(format string, v int64) ([]byte, error) {
	var b [8]byte
	out, err := encodeValueTo(&b, format, v)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), out...), nil
}

// decodeValue parses bytes in the named format into a plug-in word.
func decodeValue(format string, b []byte) (int64, error) {
	switch format {
	case "", FormatI64:
		if len(b) < 8 {
			return 0, fmt.Errorf("pirte: %s payload of %d bytes", FormatI64, len(b))
		}
		return int64(binary.BigEndian.Uint64(b)), nil
	case FormatI32:
		if len(b) < 4 {
			return 0, fmt.Errorf("pirte: %s payload of %d bytes", FormatI32, len(b))
		}
		return int64(int32(binary.BigEndian.Uint32(b))), nil
	case FormatI16:
		if len(b) < 2 {
			return 0, fmt.Errorf("pirte: %s payload of %d bytes", FormatI16, len(b))
		}
		return int64(int16(binary.BigEndian.Uint16(b))), nil
	case FormatI8:
		if len(b) < 1 {
			return 0, fmt.Errorf("pirte: %s payload of %d bytes", FormatI8, len(b))
		}
		return int64(int8(b[0])), nil
	case FormatU8:
		if len(b) < 1 {
			return 0, fmt.Errorf("pirte: %s payload of %d bytes", FormatU8, len(b))
		}
		return int64(b[0]), nil
	}
	return 0, fmt.Errorf("pirte: unknown virtual port format %q", format)
}
