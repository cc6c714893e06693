package ecm

import (
	"fmt"
	"io"

	"dynautosar/internal/core"
)

// The external frame format spoken between the ECM and external endpoints
// (the smart phone of the paper's example): a message id naming the signal
// ('Wheels', 'Speed') and a 64-bit value, length-prefixed for stream
// transports.

// maxExtFrame bounds inbound frames.
const maxExtFrame = 4096

// WriteExtFrame writes one endpoint frame.
func WriteExtFrame(w io.Writer, messageID string, value int64) error {
	body := core.NewEnc(16 + len(messageID))
	body.Str(messageID)
	body.I64(value)
	frame := core.NewEnc(2 + body.Len())
	frame.U16(uint16(body.Len()))
	if _, err := w.Write(append(frame.Bytes(), body.Bytes()...)); err != nil {
		return err
	}
	return nil
}

// ReadExtFrame reads one endpoint frame.
func ReadExtFrame(r io.Reader) (messageID string, value int64, err error) {
	var hdr [2]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return "", 0, err
	}
	n := int(hdr[0])<<8 | int(hdr[1])
	if n > maxExtFrame {
		return "", 0, fmt.Errorf("ecm: external frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err = io.ReadFull(r, body); err != nil {
		return "", 0, err
	}
	d := core.NewDec(body)
	messageID = d.Str()
	value = d.I64()
	if err := d.Err(); err != nil {
		return "", 0, err
	}
	return messageID, value, nil
}
