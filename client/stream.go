package client

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/api"
)

// maxLine bounds one NDJSON line of a batch response, far above any
// verdict or summary.
const maxLine = 16 << 20

// newLineScanner builds a bufio.Scanner sized for NDJSON payloads.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	return sc
}

// BatchStream iterates a batch response: one verdict per admitted
// task, then the summary.
//
//	stream, err := sess.Batch(ctx, req)
//	...
//	defer stream.Close()
//	for stream.Next() {
//		v := stream.Verdict()
//		...
//	}
//	sum, err := stream.Summary()
type BatchStream struct {
	body    io.ReadCloser
	done    func()
	sc      *bufio.Scanner
	v       api.Verdict
	sum     api.BatchSummary
	haveSum bool
	err     error
}

func newBatchStream(body io.ReadCloser, done func()) *BatchStream {
	return &BatchStream{body: body, done: done, sc: newLineScanner(body)}
}

// Next advances to the next verdict, reporting false at the summary
// line, on a mid-stream error envelope, or at end of stream.
func (b *BatchStream) Next() bool {
	if b.err != nil || b.haveSum {
		return false
	}
	for b.sc.Scan() {
		line := b.sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		// A line is a verdict, the final summary, or an error
		// envelope; classify by its discriminating fields.
		var probe struct {
			Code api.Code `json:"code"`
			Done *bool    `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			b.err = fmt.Errorf("client: bad batch line: %w", err)
			return false
		}
		switch {
		case probe.Code != "":
			ae := &api.Error{}
			_ = json.Unmarshal(line, ae) //nolint:errcheck // probe proved it decodes
			b.err = ae
			return false
		case probe.Done != nil:
			if err := json.Unmarshal(line, &b.sum); err != nil {
				b.err = err
				return false
			}
			b.haveSum = true
			return false
		default:
			if err := json.Unmarshal(line, &b.v); err != nil {
				b.err = err
				return false
			}
			return true
		}
	}
	if err := b.sc.Err(); err != nil {
		b.err = err
	}
	return false
}

// Verdict is the verdict Next advanced to.
func (b *BatchStream) Verdict() api.Verdict { return b.v }

// Summary returns the final summary line; call after Next returns
// false. A stream that errored (or ended without a summary — a
// truncated connection) returns the error instead.
func (b *BatchStream) Summary() (api.BatchSummary, error) {
	if b.err != nil {
		return api.BatchSummary{}, b.err
	}
	if !b.haveSum {
		return api.BatchSummary{}, fmt.Errorf("client: batch stream ended without a summary")
	}
	return b.sum, nil
}

// Close releases the stream; safe to call at any point (an early
// close aborts the server-side remainder via the body).
func (b *BatchStream) Close() error {
	err := b.body.Close()
	if b.done != nil {
		b.done()
		b.done = nil
	}
	return err
}
