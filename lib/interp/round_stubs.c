/* Float32 lane kernels for the interpreter's hot loops.
 *
 * The VM stores f32 lanes as OCaml floats (IEEE double) and re-rounds
 * after every arithmetic op.  The runtime's own
 * caml_int32_bits_of_float / caml_int32_float_of_bits pair is just a
 * `(float)` cast read through a union, so a direct
 * double->float->double cast is bit-identical (same cvtsd2ss/cvtss2sd
 * instructions, same round-to-nearest-even, same subnormal, overflow
 * and NaN behaviour) at a fraction of the call count:
 *
 *   - vulfi_round_f32: one C call per rounding instead of two;
 *   - vulfi_f32_*_arr: one C call per *vector* op instead of one
 *     rounding round-trip per lane.  The whole 8-lane op + rounding
 *     runs as a single tight loop with no OCaml/C boundary inside.
 *
 * The array kernels take flat OCaml float arrays, never allocate and
 * never call back into the runtime, so they are [@@noalloc].  Lane
 * count comes from the destination (the register's pinned buffer);
 * operands are at least that long.  In-place use (o aliased with an
 * input) is safe: each iteration reads lane i before writing lane i.
 */

#include <caml/mlvalues.h>
#include <caml/alloc.h>

/* NaN-payload determinism.  x86 addsd/mulsd return the *destination*
 * operand's payload when both operands are NaN; ocamlopt always emits
 * the left operand as the destination, while a C compiler may commute
 * `+`/`*` and pick the other one.  Fault injection flips float bits,
 * so two distinct NaN payloads really can meet, and the digests and
 * traces pin ocamlopt's choice.  On x86-64, force the exact
 * instruction shape ocamlopt emits; elsewhere, branch to give the
 * left operand's NaN priority (quieted through + 0.0, as the hardware
 * would quiet a signalling dst).  Subtraction and division are not
 * commutative, so plain C expressions already fix the operand roles.
 */
#if defined(__x86_64__)
static inline double ml_fadd(double x, double y)
{
  __asm__("addsd %1, %0" : "+x"(x) : "x"(y));
  return x;
}
static inline double ml_fmul(double x, double y)
{
  __asm__("mulsd %1, %0" : "+x"(x) : "x"(y));
  return x;
}
#else
static inline double ml_fadd(double x, double y)
{
  return x != x ? x + 0.0 : x + y;
}
static inline double ml_fmul(double x, double y)
{
  return x != x ? x + 0.0 : x * y;
}
#endif

static inline double ml_fsub(double x, double y) { return x - y; }
static inline double ml_fdiv(double x, double y) { return x / y; }

double vulfi_round_f32_unboxed(double x) { return (double)(float)x; }

/* Boxed fallback for the rare closure-valued uses of the external. */
CAMLprim value vulfi_round_f32(value x)
{
  return caml_copy_double((double)(float)Double_val(x));
}

#define F32_BINOP_ARR(name, OP)                                          \
  CAMLprim value name(value a, value b, value o)                         \
  {                                                                      \
    mlsize_t n = Wosize_val(o) / Double_wosize;                          \
    for (mlsize_t i = 0; i < n; i++)                                     \
      Store_double_field(                                                \
          o, i, (double)(float)OP(Double_field(a, i), Double_field(b, i))); \
    return Val_unit;                                                     \
  }

F32_BINOP_ARR(vulfi_f32_fadd_arr, ml_fadd)
F32_BINOP_ARR(vulfi_f32_fsub_arr, ml_fsub)
F32_BINOP_ARR(vulfi_f32_fmul_arr, ml_fmul)
F32_BINOP_ARR(vulfi_f32_fdiv_arr, ml_fdiv)

/* Horizontal add-reduction: sequential accumulate with f32 rounding
 * after every step, exactly as the scalar OCaml loop rounds.  It
 * allocates the boxed float result (one box per whole vector), so no
 * noalloc. */

CAMLprim value vulfi_f32_reduce_fadd(value a)
{
  mlsize_t n = Wosize_val(a) / Double_wosize;
  double acc = 0.0;
  for (mlsize_t i = 0; i < n; i++)
    acc = (double)(float)ml_fadd(acc, Double_field(a, i));
  return caml_copy_double(acc);
}
