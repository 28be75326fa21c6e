// The engine-side include path for the spillable tuple logs. They live in
// constraints/extent_log.h, beside the constraint core that uses them in
// both DOM and stream mode.

#ifndef XIC_ENGINE_EXTENT_LOG_H_
#define XIC_ENGINE_EXTENT_LOG_H_

#include "constraints/extent_log.h"

#endif  // XIC_ENGINE_EXTENT_LOG_H_
