// Compatibility shim: the wire codec lives in io/wire.hpp (namespace
// rsm::io). It stays only because paperbench/serving.cpp still includes it
// by this path; the next change to the benchmark switches that file to
// io/wire.hpp and deletes this header. Nothing in src/ includes it.
#pragma once

#include "io/wire.hpp"

namespace rsm::serve {

using io::put_bytes;
using io::put_real;
using io::put_u32;
using io::WireReader;

}  // namespace rsm::serve
