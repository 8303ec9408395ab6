package tracestore

import "repro/internal/objcodec"

// The object format without a store, for the external tests of
// object_test.go, which know the stored types.

const ObjectHeaderLen = objectHeaderLen

func EncodeSidecar(v objcodec.Value) []byte { return encodeSidecar(v) }

func DecodeSidecar(data []byte, v objcodec.Value) error { return decodeSidecar(data, v) }

// ResultsObject mirrors resultObject.
type ResultsObject[T any] struct {
	Key          Key
	CodecVersion int
	Version      string
	Results      map[string]T
}

func EncodeResults[T any, P ResultCodec[T]](kind string, o ResultsObject[T]) []byte {
	return encodeResults[T, P](kind, resultObject[T](o))
}

func DecodeResults[T any, P ResultCodec[T]](data []byte, kind string) (ResultsObject[T], error) {
	o, err := decodeResults[T, P](data, kind)
	return ResultsObject[T](o), err
}

// SealPayload wraps an arbitrary payload in a valid envelope, so a
// fuzzer's bytes get past the checksum to the decoders.
func SealPayload(payload []byte) []byte {
	return sealObject(objcodec.NewEncoder(append(make([]byte, objectHeaderLen), payload...)))
}
