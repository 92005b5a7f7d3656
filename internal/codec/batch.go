package codec

import "encoding/json"

// Batch is a decoded POST /v1/batch envelope: a default op and the
// items to compute.
type Batch struct {
	Op    string
	Items []BatchItem
}

// BatchItem is one envelope item: its op (empty means the envelope's)
// and either its decoded scenario or the error Decode reports for it.
type BatchItem struct {
	Op       string
	Scenario *Scenario
	Err      error
}

// batchRequest is the encoding/json form of the envelope, the fallback
// of DecodeBatch: each item's scenario is kept raw and decoded on its
// own.
type batchRequest struct {
	Op    string      `json:"op,omitempty"`
	Items []batchItem `json:"items"`
}

type batchItem struct {
	Op       string          `json:"op,omitempty"`
	Scenario json.RawMessage `json:"scenario"`
}

// DecodeBatch decodes a /v1/batch envelope and every item's scenario
// in one pass. An envelope that is not valid JSON is an error, the
// encoding/json error unwrapped; an item that does not decode carries
// Decode's error in its slot and leaves its siblings alone. Envelopes
// outside the fast subset are decoded as batchRequest and item by
// item, with the same result.
//
// Items whose flows or demands array repeats the previous such array
// byte for byte share one decoded slice: treat a decoded scenario's
// Flows and Demands as read-only.
func DecodeBatch(data []byte) (*Batch, error) {
	if b, ok := decodeBatchFast(data); ok {
		return b, nil
	}
	var env batchRequest
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	b := &Batch{Op: env.Op}
	if env.Items != nil {
		b.Items = make([]BatchItem, len(env.Items))
	}
	for i, it := range env.Items {
		b.Items[i].Op = it.Op
		b.Items[i].Scenario, b.Items[i].Err = Decode(it.Scenario)
	}
	return b, nil
}
