/*
 * Native core of the commit-log recorder (repro.sim.replay.record_run).
 *
 * Executes one program under continuous power over the CPU's own memory
 * buffers and writes the commit-log columns that ReplayRecord stores:
 * retired PCs (uint16), the cumulative cost prefix (uint32), the access
 * log (stream position and address of every load and store; the opcode
 * at the position fixes kind and width), the store log, SKM retires and
 * keyframes. The semantics mirror
 * the handlers of repro/sim/decode.py exactly, quirks included:
 * AND/ORR/EOR write unmasked (possibly negative) results, shift
 * amounts saturate at 32, ASR sign-extends, MUL_ASP/MUL_ASPS use their
 * subword masks and shifts, and ADD/SUB_ASV are lane-isolated.
 * Registers are int64 and every masked result is computed in uint64;
 * repro/sim/native.py only encodes programs whose immediates and
 * initial registers lie in [-2^32, 2^32), which keeps every register
 * value the Python handlers can produce inside int64.
 *
 * The run proceeds in chunks: each call executes at most `chunk`
 * instructions into caller-owned column buffers, saves the machine
 * state and returns WN_MORE, so the caller appends the chunk to its
 * arrays and calls again; no memory is allocated here. Only a clean
 * HALT returns WN_HALT. Every other ending (an access outside
 * non-volatile RAM, a bad PC, the instruction limit, a cost outside
 * [worst - 1, worst], a cycle count past max_cycles, which the caller
 * sets to the cost column's range) returns a status and the caller
 * re-runs the Python recorder, which produces the verdict. The caller
 * only passes programs whose PCs fit the uint16 PC column.
 *
 * Standard C only, no Python headers: built with cc -O2 -shared -fPIC
 * and called through ctypes, which releases the GIL for each call.
 */

#include <stdint.h>

/* Opcodes; repro/sim/native.py encodes with the same numbers. */
enum {
    OP_MOV, OP_MVN, OP_ADD, OP_ADC, OP_CMN, OP_SUB, OP_SBC, OP_CMP,
    OP_RSB, OP_NEG, OP_TST, OP_AND, OP_ORR, OP_EOR, OP_BIC, OP_LSL,
    OP_LSR, OP_ASR, OP_SXTB, OP_SXTH, OP_UXTB, OP_UXTH,
    OP_LOAD, OP_STORE, OP_BCC, OP_B, OP_BL, OP_BX,
    OP_MUL, OP_ASP, OP_ASPS, OP_ADDV, OP_SUBV,
    OP_SKM, OP_HALT, OP_NOP
};

/* One encoded instruction: WN_FIELDS int64 words. rm < 0 selects the
 * immediate as the source operand; aux is the access size (loads and
 * stores), condition index (conditional branches) or subword width
 * (MUL_ASP*, *_ASV). */
enum { F_OP, F_RD, F_RN, F_RM, F_IMM, F_TARGET, F_AUX, F_WORST, WN_FIELDS };

/* Output columns; element widths in col_width. */
enum {
    COL_PCS, COL_CUM, COL_ACC_POS, COL_ACC_ADDR,
    COL_STORE_POS, COL_STORE_ADDR, COL_STORE_SIZE, COL_STORE_VALUE,
    COL_SKIM_POS, COL_SKIM_TARGET,
    COL_KF_POS, COL_KF_REGS, COL_KF_FLAGS, COL_KF_PC,
    WN_COLUMNS
};

static const int col_width[WN_COLUMNS] = {
    2, 4, 4, 4,
    8, 4, 1, 4,
    8, 8,
    8, 8, 1, 8,
};

enum { WN_HALT, WN_MORE, WN_UNSAFE, WN_FAULT, WN_LIMIT, WN_COST, WN_RANGE };

#define M32 0xFFFFFFFFull
#define SIGN32 0x80000000ull

/* One caller-owned column buffer; each call fills it from index 0 and
 * sets len to the number of elements written. */
typedef struct {
    void *data;
    int64_t len;
} wn_col;

/* Machine state carried from one call to the next. flags packs
 * n | z << 1 | c << 2 | v << 3; total is the cycle count so far. */
typedef struct {
    int64_t pos;
    int64_t total;
    int64_t pc;
    int64_t flags;
    int64_t regs[16];
} wn_state;

#define PUSH(col, type, value) (((type *)(col).data)[(col).len++] = (value))

static uint32_t load_le(const uint8_t *p, int size)
{
    if (size == 4)
        return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
               | (uint32_t)p[3] << 24;
    if (size == 2)
        return (uint32_t)p[0] | (uint32_t)p[1] << 8;
    return p[0];
}

static void store_le(uint8_t *p, int size, uint32_t value)
{
    p[0] = (uint8_t)value;
    if (size >= 2)
        p[1] = (uint8_t)(value >> 8);
    if (size == 4) {
        p[2] = (uint8_t)(value >> 16);
        p[3] = (uint8_t)(value >> 24);
    }
}

static int condition(int64_t cond, int n, int z, int c, int v)
{
    switch (cond) {
    case 0: return z;                 /* EQ */
    case 1: return !z;                /* NE */
    case 2: return n != v;            /* LT */
    case 3: return n == v;            /* GE */
    case 4: return !z && n == v;      /* GT */
    case 5: return z || n != v;       /* LE */
    case 6: return !c;                /* LO */
    case 7: return c;                 /* HS */
    case 8: return c && !z;           /* HI */
    case 9: return !c || z;           /* LS */
    case 10: return n;                /* MI */
    default: return !n;               /* PL */
    }
}

/* Lane-isolated add (sub = 0) or subtract (sub = 1) of ADD/SUB_ASV. */
static uint64_t vector_op(uint64_t a, uint64_t b, int64_t width, int sub)
{
    uint64_t mask = ((uint64_t)1 << width) - 1, result = 0, lane;
    int64_t shift;

    for (shift = 0; shift < 32; shift += width) {
        lane = sub ? ((a >> shift) & mask) - ((b >> shift) & mask)
                   : ((a >> shift) & mask) + ((b >> shift) & mask);
        result |= (lane & mask) << shift;
    }
    return result;
}

/*
 * Continue one recording run for at most `chunk` instructions.
 *
 * code: n encoded instructions. regions: nregions x (base, size, safe)
 * in the memory map's lookup order; data[i] is region i's buffer
 * (only touched when safe, i.e. non-volatile RAM). st: the state to
 * resume from (pos 0 and the staged registers, flags and PC on the
 * first call), updated on WN_MORE and WN_HALT. cols: WN_COLUMNS
 * buffers with room for `chunk` elements each, except the keyframe
 * columns, which need chunk / interval + 1 keyframes.
 */
int wn_record(const int64_t *code, int64_t n, int64_t nregions,
              const int64_t *regions, uint8_t *const *data,
              int64_t interval, int64_t max_instructions,
              int64_t max_cycles, int64_t full_width, int64_t chunk,
              wn_state *st, wn_col *cols)
{
    int64_t r[16];
    int fn = (int)(st->flags & 1), fz = (int)(st->flags >> 1 & 1);
    int fc = (int)(st->flags >> 2 & 1), fv = (int)(st->flags >> 3 & 1);
    int64_t pos = st->pos, total = st->total, pc = st->pc, done = 0, i;
    int status;

    if (interval <= 0 || chunk <= 0)
        return WN_FAULT;
    for (i = 0; i < WN_COLUMNS; i++)
        cols[i].len = 0;
    for (i = 0; i < 16; i++)
        r[i] = st->regs[i];

    for (;;) {
        const int64_t *in;
        int64_t next, cost = 1, worst;
        int access = 0, size = 0, halt = 0;
        uint64_t addr = 0;

        if (pos >= max_instructions)
            return WN_LIMIT;
        if (done == chunk) {
            status = WN_MORE;
            break;
        }
        if (pos % interval == 0) {
            PUSH(cols[COL_KF_POS], int64_t, pos);
            for (i = 0; i < 16; i++)
                PUSH(cols[COL_KF_REGS], int64_t, r[i]);
            PUSH(cols[COL_KF_FLAGS], uint8_t,
                 (uint8_t)(fn | fz << 1 | fc << 2 | fv << 3));
            PUSH(cols[COL_KF_PC], int64_t, pc);
        }
        if (pc < 0 || pc >= n)
            return WN_FAULT;
        in = code + pc * WN_FIELDS;
        next = pc + 1;

        switch (in[F_OP]) {
        case OP_MOV: case OP_MVN: case OP_ADD: case OP_ADC: case OP_CMN:
        case OP_SUB: case OP_SBC: case OP_CMP: case OP_RSB: case OP_NEG:
        case OP_TST: case OP_AND: case OP_ORR: case OP_EOR: case OP_BIC:
        case OP_LSL: case OP_LSR: case OP_ASR: case OP_SXTB: case OP_SXTH:
        case OP_UXTB: case OP_UXTH: {
            int64_t src = in[F_RM] >= 0 ? r[in[F_RM]] : in[F_IMM];
            int64_t rn = r[in[F_RN]];
            uint64_t a, b, sum, res, v;
            int writes = 1, nz = 1;
            int64_t shift;

            switch (in[F_OP]) {
            case OP_MOV:
                res = (uint64_t)src & M32;
                break;
            case OP_MVN:
                res = ~(uint64_t)src & M32;
                break;
            case OP_ADD: case OP_ADC: case OP_CMN:
                a = (uint64_t)rn & M32;
                b = (uint64_t)src & M32;
                sum = a + b + (in[F_OP] == OP_ADC && fc);
                res = sum & M32;
                fc = sum > M32;
                fv = ((a ^ res) & (b ^ res) & SIGN32) != 0;
                writes = in[F_OP] != OP_CMN;
                break;
            case OP_SUB: case OP_SBC: case OP_CMP:
                a = (uint64_t)rn & M32;
                b = (uint64_t)src & M32;
                sum = a + (~b & M32) + (in[F_OP] == OP_SBC ? (uint64_t)fc : 1);
                res = sum & M32;
                fc = sum > M32;
                fv = ((a ^ b) & (a ^ res) & SIGN32) != 0;
                writes = in[F_OP] != OP_CMP;
                break;
            case OP_RSB:
                a = (uint64_t)src & M32;
                b = (uint64_t)rn & M32;
                sum = a + (~b & M32) + 1;
                res = sum & M32;
                fc = sum > M32;
                fv = ((a ^ b) & (a ^ res) & SIGN32) != 0;
                break;
            case OP_NEG:
                b = (uint64_t)src & M32;
                sum = (~b & M32) + 1;
                res = sum & M32;
                fc = sum > M32;
                fv = (b & res & SIGN32) != 0;
                break;
            case OP_TST:
                res = (uint64_t)(rn & src) & M32;
                writes = 0;
                break;
            case OP_AND: case OP_ORR: case OP_EOR: {
                /* Unmasked write; flags from the masked result. */
                int64_t raw = in[F_OP] == OP_AND ? rn & src
                              : in[F_OP] == OP_ORR ? rn | src : rn ^ src;
                r[in[F_RD]] = raw;
                res = (uint64_t)raw & M32;
                writes = 0;
                break;
            }
            case OP_BIC:
                res = (uint64_t)(rn & ~src) & M32;
                break;
            case OP_LSL: case OP_LSR: case OP_ASR:
                shift = (int64_t)((uint64_t)src & 0xFF);
                if (shift > 32)
                    shift = 32;
                v = (uint64_t)rn & M32;
                if (in[F_OP] == OP_LSL) {
                    res = ((uint64_t)rn << shift) & M32;
                } else if (in[F_OP] == OP_LSR || !(v & SIGN32)) {
                    res = v >> shift;
                } else {
                    /* Arithmetic shift of a negative value, spelled
                     * without implementation-defined signed shifts. */
                    res = ~(~(v | ~M32) >> shift) & M32;
                }
                break;
            case OP_SXTB:
                v = (uint64_t)src & 0xFF;
                res = v & 0x80 ? v | 0xFFFFFF00u : v;
                nz = 0;
                break;
            case OP_SXTH:
                v = (uint64_t)src & 0xFFFF;
                res = v & 0x8000 ? v | 0xFFFF0000u : v;
                nz = 0;
                break;
            case OP_UXTB:
                res = (uint64_t)src & 0xFF;
                nz = 0;
                break;
            default: /* OP_UXTH */
                res = (uint64_t)src & 0xFFFF;
                nz = 0;
                break;
            }
            if (writes)
                r[in[F_RD]] = (int64_t)res;
            if (nz) {
                fn = res >= SIGN32;
                fz = res == 0;
            }
            break;
        }

        case OP_LOAD: case OP_STORE: {
            int64_t k;
            uint8_t *p;

            size = (int)in[F_AUX];
            addr = (uint64_t)(r[in[F_RN]] + (in[F_RM] >= 0 ? r[in[F_RM]]
                                                           : in[F_IMM]))
                   & M32;
            /* First region holding the whole access, like Memory._find. */
            for (k = 0; k < nregions; k++) {
                const int64_t *g = regions + 3 * k;
                if ((uint64_t)g[0] <= addr
                    && addr + (uint64_t)size <= (uint64_t)(g[0] + g[1]))
                    break;
            }
            if (k == nregions)
                return WN_FAULT;
            if (!regions[3 * k + 2])
                return WN_UNSAFE;
            p = data[k] + (addr - (uint64_t)regions[3 * k]);
            access = 1;
            if (in[F_OP] == OP_LOAD) {
                r[in[F_RD]] = load_le(p, size);
            } else {
                uint64_t mask = size == 4 ? M32 : size == 2 ? 0xFFFF : 0xFF;
                uint32_t value = (uint32_t)((uint64_t)r[in[F_RD]] & mask);
                store_le(p, size, value);
                PUSH(cols[COL_STORE_POS], int64_t, pos);
                PUSH(cols[COL_STORE_ADDR], uint32_t, (uint32_t)addr);
                PUSH(cols[COL_STORE_SIZE], int8_t, (int8_t)size);
                PUSH(cols[COL_STORE_VALUE], uint32_t, value);
            }
            cost = 2;
            break;
        }

        case OP_BCC:
            if (condition(in[F_AUX], fn, fz, fc, fv)) {
                next = in[F_TARGET];
                cost = 2;
            }
            break;
        case OP_B:
            next = in[F_TARGET];
            cost = 2;
            break;
        case OP_BL:
            r[14] = pc + 1;
            next = in[F_TARGET];
            cost = 3;
            break;
        case OP_BX:
            next = r[in[F_RM]];
            if (next < 0 || next >= n)
                return WN_FAULT;
            cost = 2;
            break;

        case OP_MUL: case OP_ASP: case OP_ASPS: {
            uint64_t a = (uint64_t)r[in[F_RD]] & M32, res;
            int64_t shift = 0;

            if (in[F_OP] == OP_MUL) {
                res = (a * ((uint64_t)r[in[F_RM]] & M32)) & M32;
                cost = full_width;
            } else {
                uint64_t mask = in[F_OP] == OP_ASPS
                                ? M32 : ((uint64_t)1 << in[F_AUX]) - 1;
                shift = in[F_AUX] * in[F_IMM];
                if (shift < 0)
                    return WN_FAULT;
                res = shift >= 32 ? 0
                      : ((a * ((uint64_t)r[in[F_RM]] & mask)) << shift) & M32;
                cost = in[F_AUX];
            }
            r[in[F_RD]] = (int64_t)res;
            fn = res >= SIGN32;
            fz = res == 0;
            break;
        }
        case OP_ADDV: case OP_SUBV:
            r[in[F_RD]] = (int64_t)vector_op((uint64_t)r[in[F_RD]],
                                             (uint64_t)r[in[F_RM]], in[F_AUX],
                                             in[F_OP] == OP_SUBV);
            break;

        case OP_SKM:
            PUSH(cols[COL_SKIM_POS], int64_t, pos);
            PUSH(cols[COL_SKIM_TARGET], int64_t, in[F_TARGET]);
            break;
        case OP_HALT:
            halt = 1;
            next = pc;
            break;
        case OP_NOP:
            break;
        default:
            return WN_FAULT;
        }

        worst = in[F_WORST];
        if (cost < worst - 1 || cost > worst)
            return WN_COST;
        total += cost;
        if (total > max_cycles)
            return WN_RANGE;
        PUSH(cols[COL_PCS], uint16_t, (uint16_t)pc);
        PUSH(cols[COL_CUM], uint32_t, (uint32_t)total);
        if (access) {
            PUSH(cols[COL_ACC_POS], uint32_t, (uint32_t)pos);
            PUSH(cols[COL_ACC_ADDR], uint32_t, (uint32_t)addr);
        }
        pos++;
        done++;
        if (halt) {
            status = WN_HALT;
            break;
        }
        pc = next;
    }
    st->pos = pos;
    st->total = total;
    st->pc = pc;
    st->flags = fn | fz << 1 | fc << 2 | fv << 3;
    for (i = 0; i < 16; i++)
        st->regs[i] = r[i];
    return status;
}

/* Element width in bytes of column i, so the caller can check its layout. */
int wn_column_width(int i)
{
    return i >= 0 && i < WN_COLUMNS ? col_width[i] : 0;
}
