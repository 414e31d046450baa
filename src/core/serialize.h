#ifndef XCLUSTER_CORE_SERIALIZE_H_
#define XCLUSTER_CORE_SERIALIZE_H_

#include "common/io/bytes.h"
#include "common/status.h"
#include "summaries/value_summary.h"

namespace xcluster {

/// The value-summary record codec of the XCSF summary pool (see
/// docs/FORMAT.md): one tagged record, fixed8 kind + payload, per pool
/// entry. Deterministic: equal summaries encode to identical bytes, and
/// decode-then-encode reproduces a record byte for byte.

/// Encodes one value summary as a tagged record.
void EncodeValueSummary(const ValueSummary& vsumm, ByteSink* sink);

/// Decodes a record written by EncodeValueSummary. Element counts are
/// checked against the remaining bytes before any allocation. kCorruption
/// on any malformed input.
Status DecodeValueSummary(ByteSource* src, ValueSummary* vsumm);

}  // namespace xcluster

#endif  // XCLUSTER_CORE_SERIALIZE_H_
