// Compatibility name for SchemaMonitor's sampled measure source (see
// fd/schema_monitor.h).
#pragma once

#include "fd/schema_monitor.h"

namespace fdevolve::fd {

/// Kept because the frozen benchmark (perfbench/) names this header and
/// type; new code uses SchemaMonitor's capacity/seed constructors.
using SampledSchemaMonitor = SchemaMonitor;

}  // namespace fdevolve::fd
