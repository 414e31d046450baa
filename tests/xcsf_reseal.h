// Re-sealing an XCSF image after an in-place edit, so that the edit gets
// past the checksums and reaches the validator's semantic checks and the
// value-summary decoder.
#ifndef XCLUSTER_TESTS_XCSF_RESEAL_H_
#define XCLUSTER_TESTS_XCSF_RESEAL_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/io/crc32c.h"
#include "storage/xcsf_format.h"

namespace xcluster {

inline uint32_t GetU32(const std::string& image, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, image.data() + offset, sizeof(v));
  return v;
}

inline uint64_t GetU64(const std::string& image, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, image.data() + offset, sizeof(v));
  return v;
}

inline void PutU32(std::string* image, size_t offset, uint32_t v) {
  std::memcpy(image->data() + offset, &v, sizeof(v));
}

inline void PutU64(std::string* image, size_t offset, uint64_t v) {
  std::memcpy(image->data() + offset, &v, sizeof(v));
}

/// Re-seals an image whose bytes were edited in place: every section CRC
/// in the table, then the table CRC, the header CRC and the whole-file
/// CRC, in that order (each covers the one before). Table entries and
/// checksums that an edit has pushed outside the image are left as they
/// are, so any image, however mangled, can be re-sealed.
inline void Reseal(std::string* image) {
  const size_t size = image->size();
  if (size < storage::kXcsfHeaderBytes) return;
  uint64_t section_count = GetU32(*image, 28);
  const size_t table_room =
      (size - storage::kXcsfHeaderBytes) / storage::kXcsfTableEntryBytes;
  if (section_count > table_room) section_count = table_room;
  for (uint64_t i = 0; i < section_count; ++i) {
    const size_t entry =
        storage::kXcsfHeaderBytes + i * storage::kXcsfTableEntryBytes;
    const uint64_t offset = GetU64(*image, entry + 8);
    const uint64_t length = GetU64(*image, entry + 16);
    if (offset > size || length > size - offset) continue;
    PutU32(image, entry + 24,
           crc32c::Mask(crc32c::Value(image->substr(offset, length))));
  }
  PutU32(image, 56,
         crc32c::Mask(crc32c::Value(image->substr(
             storage::kXcsfHeaderBytes,
             section_count * storage::kXcsfTableEntryBytes))));
  PutU32(image, 60, crc32c::Mask(crc32c::Value(image->substr(0, 60))));
  if (size < storage::kXcsfHeaderBytes + storage::kXcsfTrailerBytes) return;
  const size_t trailer = size - storage::kXcsfTrailerBytes;
  PutU32(image, trailer,
         crc32c::Mask(crc32c::Value(image->substr(0, trailer))));
}

}  // namespace xcluster

#endif  // XCLUSTER_TESTS_XCSF_RESEAL_H_
