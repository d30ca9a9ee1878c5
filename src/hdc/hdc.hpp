// Umbrella header for the HDC substrate library.
#pragma once

#include "hdc/codebook.hpp"      // IWYU pragma: export
#include "hdc/hash.hpp"          // IWYU pragma: export
#include "hdc/hypervector.hpp"   // IWYU pragma: export
#include "hdc/item_memory.hpp"   // IWYU pragma: export
#include "hdc/kernels/packed_item_memory.hpp"  // IWYU pragma: export
#include "hdc/level.hpp"         // IWYU pragma: export
#include "hdc/match.hpp"         // IWYU pragma: export
#include "hdc/ops.hpp"           // IWYU pragma: export
#include "hdc/packed.hpp"        // IWYU pragma: export
#include "hdc/io.hpp"            // IWYU pragma: export
#include "hdc/random.hpp"        // IWYU pragma: export
#include "hdc/sequence.hpp"      // IWYU pragma: export
#include "hdc/similarity.hpp"    // IWYU pragma: export
