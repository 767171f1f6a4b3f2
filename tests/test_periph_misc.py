"""Tests for UART, GPIO, interrupt controller, JTAGPPC and reset block."""

import pytest

from repro.bus.transaction import Op, Transaction
from repro.errors import BusError
from repro.mem.memory import MemoryArray
from repro.periph.gpio import REG_IN, REG_OUT, Gpio
from repro.periph.intc import REG_ACK, REG_ENABLE, REG_PENDING, InterruptController
from repro.periph.jtagppc import JtagPpc
from repro.periph.reset import ResetBlock
from repro.periph.uart import (
    REG_RX,
    REG_STATUS,
    REG_TX,
    STATUS_RX_AVAIL,
    STATUS_TX_READY,
    Uart,
)

BASE = 0xA000_0000


# -- UART ---------------------------------------------------------------------

def test_uart_tx_logs_bytes():
    uart = Uart(BASE)
    for ch in b"hi":
        uart.access(Transaction(Op.WRITE, BASE + REG_TX, data=ch), 0)
    assert bytes(uart.tx_log) == b"hi"


def test_uart_byte_time_at_115200():
    uart = Uart(BASE, baud=115200)
    assert uart.byte_time_ps == pytest.approx(86_805_556, rel=0.01)


def test_uart_tx_busy_then_ready():
    uart = Uart(BASE)
    uart.access(Transaction(Op.WRITE, BASE + REG_TX, data=0x41), 0)
    _, status = uart.access(Transaction(Op.READ, BASE + REG_STATUS), 0)
    assert not (status & STATUS_TX_READY)
    _, status = uart.access(
        Transaction(Op.READ, BASE + REG_STATUS), uart.tx_busy_until_ps
    )
    assert status & STATUS_TX_READY


def test_uart_rx_path():
    uart = Uart(BASE)
    uart.feed_rx(b"ok")
    _, status = uart.access(Transaction(Op.READ, BASE + REG_STATUS), 0)
    assert status & STATUS_RX_AVAIL
    _, first = uart.access(Transaction(Op.READ, BASE + REG_RX), 0)
    assert first == ord("o")


def test_uart_rx_empty_returns_zero():
    uart = Uart(BASE)
    _, value = uart.access(Transaction(Op.READ, BASE + REG_RX), 0)
    assert value == 0


def test_uart_bad_baud():
    with pytest.raises(BusError):
        Uart(BASE, baud=0)


# -- GPIO ---------------------------------------------------------------------

def test_gpio_led_write_read():
    gpio = Gpio(BASE)
    gpio.access(Transaction(Op.WRITE, BASE + REG_OUT, data=0x5), 0)
    assert gpio.leds == 0x5
    _, value = gpio.access(Transaction(Op.READ, BASE + REG_OUT), 0)
    assert value == 0x5


def test_gpio_buttons():
    gpio = Gpio(BASE)
    gpio.press(0x3)
    _, value = gpio.access(Transaction(Op.READ, BASE + REG_IN), 0)
    assert value == 0x3


def test_gpio_write_to_input_rejected():
    gpio = Gpio(BASE)
    with pytest.raises(BusError):
        gpio.access(Transaction(Op.WRITE, BASE + REG_IN, data=1), 0)


# -- interrupt controller ------------------------------------------------------

def test_intc_latch_and_ack():
    intc = InterruptController(BASE)
    intc.enabled = 0x1
    intc.raise_irq(0, when_ps=100)
    _, pending = intc.access(Transaction(Op.READ, BASE + REG_PENDING), 0)
    assert pending == 0x1
    intc.access(Transaction(Op.WRITE, BASE + REG_ACK, data=0x1), 0)
    _, pending = intc.access(Transaction(Op.READ, BASE + REG_PENDING), 0)
    assert pending == 0


def test_intc_masked_source_invisible():
    intc = InterruptController(BASE)
    intc.raise_irq(3, when_ps=0)
    _, pending = intc.access(Transaction(Op.READ, BASE + REG_PENDING), 0)
    assert pending == 0  # not enabled


def test_intc_handler_called_when_enabled():
    intc = InterruptController(BASE)
    calls = []
    intc.on_irq(2, lambda src, when: calls.append((src, when)))
    intc.access(Transaction(Op.WRITE, BASE + REG_ENABLE, data=0x4), 0)
    intc.raise_irq(2, when_ps=500)
    assert calls == [(2, 500)]


def test_intc_source_range_checked():
    intc = InterruptController(BASE)
    with pytest.raises(BusError):
        intc.raise_irq(32, 0)


def test_intc_raised_log():
    intc = InterruptController(BASE)
    intc.raise_irq(1, 10)
    intc.raise_irq(1, 20)
    assert intc.raised_log == [(1, 10), (1, 20)]


# -- JTAGPPC --------------------------------------------------------------------

def test_jtag_download_readback():
    jtag = JtagPpc()
    memory = MemoryArray(1024)
    jtag.download(memory, 0x10, b"program")
    assert jtag.readback(memory, 0x10, 7) == b"program"


# -- reset block ------------------------------------------------------------------

def test_reset_block_fires_callbacks():
    block = ResetBlock()
    hits = []
    block.register(lambda: hits.append("cpu"))
    block.register(lambda: hits.append("uart"))
    assert block.assert_reset() == 2
    assert hits == ["cpu", "uart"]


def test_reset_does_not_touch_config_memory(system32):
    # The paper: reset "can be used to externally reset the CPU and
    # peripherals without affecting the fabric configuration".
    snapshot = system32.config_memory.snapshot()
    system32.reset_block.assert_reset()
    for address, data in snapshot.items():
        assert (system32.config_memory.read_frame(address) == data).all()
