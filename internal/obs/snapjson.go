package obs

import "encoding/json"

// MarshalJSON encodes m as encoding/json encodes the same metrics held in a
// map[string]V: an object keyed by name, keys sorted. Checkpoints, job
// records and event logs written with either form are read by the other.
func (m Metrics[V]) MarshalJSON() ([]byte, error) {
	mm := make(map[string]V, len(m))
	for _, e := range m {
		mm[e.Name] = e.Value
	}
	return json.Marshal(mm)
}

// UnmarshalJSON decodes an object keyed by metric name through
// encoding/json's map decoding into a name-sorted list, swapping each name
// for its interned copy when the name is registered in this process, so
// decoded snapshots (checkpoints, served results) share name storage with
// live ones. Unknown names are kept as decoded and never interned.
func (m *Metrics[V]) UnmarshalJSON(data []byte) error {
	var mm map[string]V
	if err := json.Unmarshal(data, &mm); err != nil {
		return err
	}
	if len(mm) == 0 {
		*m = nil
		return nil
	}
	// Exact capacity: a decoded snapshot is held as long as its Results are.
	out := make(Metrics[V], 0, len(mm))
	names.RLock()
	for k, v := range mm {
		if c, ok := names.m[k]; ok {
			k = c
		}
		out = append(out, Metric[V]{k, v})
	}
	names.RUnlock()
	sortMetrics(out)
	*m = out
	return nil
}
