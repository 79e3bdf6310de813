// Sketch-bank files: persistent storage for a SketchBank (the full r x
// streams synopsis matrix plus its configuration and master seed). A
// bank file is an engine snapshot (query/stream_engine.h) with no
// queries, so it shares the snapshot's one layout and version check;
// used by the sketchtool CLI and by engine-external tooling. The format
// is self-describing, so a bank written by one process can be merged or
// queried by another that only shares the file.

#ifndef SETSKETCH_TOOLS_BANK_IO_H_
#define SETSKETCH_TOOLS_BANK_IO_H_

#include <memory>
#include <string>

#include "core/sketch_bank.h"

namespace setsketch {

/// Serializes a bank (its SketchConfig, every stream's synopsis in name
/// order) into a byte buffer.
std::string EncodeBank(const SketchBank& bank);

/// Decodes EncodeBank bytes. On failure returns nullptr and, if `error`
/// is non-null, a description.
std::unique_ptr<SketchBank> DecodeBank(const std::string& bytes,
                                       std::string* error);

/// Whole-file helpers. On failure return false / empty and set *error.
bool WriteFileBytes(const std::string& path, const std::string& bytes,
                    std::string* error);
bool ReadFileBytes(const std::string& path, std::string* bytes,
                   std::string* error);

}  // namespace setsketch

#endif  // SETSKETCH_TOOLS_BANK_IO_H_
