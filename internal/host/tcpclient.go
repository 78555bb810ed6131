package host

import (
	"encoding/binary"
	"time"

	"scout/internal/proto/inet"
	"scout/internal/proto/ip"
	"scout/internal/proto/tcp"
	"scout/internal/sim"
)

// TCPConn is a minimal active-open TCP endpoint for driving the Scout web
// server: connect, send a request, collect the response until the server's
// FIN. Enough machinery (in-order receive, cumulative acks, go-back-N
// retransmit) to survive a lossy link.
type TCPConn struct {
	h     *Host
	raddr inet.Addr
	rport uint16
	lport uint16

	state   int // 0 closed, 1 syn-sent, 2 established, 3 fin-wait, 4 done
	sndNxt  uint32
	sndUna  uint32
	rcvNxt  uint32
	sendBuf []byte
	sentFin bool
	finSeq  uint32
	rtxQ    []clientSeg
	rtxEv   *sim.Event

	// Received accumulates in-order payload bytes.
	Received []byte
	// OnConnect, OnData and OnClose observe connection life.
	OnConnect func()
	OnData    func([]byte)
	OnClose   func()

	RTO     time.Duration
	MSS     int
	retries int
}

type clientSeg struct {
	seq   uint32
	data  []byte
	flags uint16
}

// DialTCP starts an active open from srcPort to dst:port.
func (h *Host) DialTCP(dst inet.Addr, port, srcPort uint16) *TCPConn {
	if h.tcpConns == nil {
		h.tcpConns = make(map[uint16]*TCPConn)
	}
	c := &TCPConn{
		h: h, raddr: dst, rport: port, lport: srcPort,
		RTO: 200 * time.Millisecond, MSS: 1400,
		sndNxt: 5000, sndUna: 5000,
	}
	h.tcpConns[srcPort] = c
	c.state = 1
	c.sendSeg(clientSeg{seq: c.sndNxt, flags: tcp.FlagSYN}, false)
	c.rtxQ = append(c.rtxQ, clientSeg{seq: c.sndNxt, flags: tcp.FlagSYN})
	c.sndNxt++
	c.armRtx()
	return c
}

// Send queues payload bytes.
func (c *TCPConn) Send(data []byte) {
	c.sendBuf = append(c.sendBuf, data...)
	c.pump()
}

// Close sends FIN once buffered data drains.
func (c *TCPConn) Close() {
	c.sentFin = true // mark intent; actual FIN in pump
	c.pump()
}

// Done reports whether both sides closed.
func (c *TCPConn) Done() bool { return c.state == 4 }

func (c *TCPConn) pump() {
	if c.state != 2 {
		return
	}
	for len(c.sendBuf) > 0 {
		n := c.MSS
		if n > len(c.sendBuf) {
			n = len(c.sendBuf)
		}
		seg := clientSeg{seq: c.sndNxt, data: append([]byte(nil), c.sendBuf[:n]...), flags: tcp.FlagPSH}
		c.sendBuf = c.sendBuf[n:]
		c.sndNxt += uint32(n)
		c.rtxQ = append(c.rtxQ, seg)
		c.sendSeg(seg, true)
	}
	if c.sentFin && c.finSeq == 0 {
		c.finSeq = c.sndNxt
		seg := clientSeg{seq: c.sndNxt, flags: tcp.FlagFIN}
		c.sndNxt++
		c.rtxQ = append(c.rtxQ, seg)
		c.sendSeg(seg, true)
		c.state = 3
	}
	c.armRtx()
}

func (c *TCPConn) armRtx() {
	if len(c.rtxQ) == 0 {
		if c.rtxEv != nil {
			c.rtxEv.Cancel()
			c.rtxEv = nil
		}
		return
	}
	if c.rtxEv != nil {
		return
	}
	c.rtxEv = c.h.eng.After(c.RTO, func() {
		c.rtxEv = nil
		if len(c.rtxQ) == 0 || c.state == 4 {
			return
		}
		c.retries++
		if c.retries > 8 {
			c.state = 4
			return
		}
		for _, s := range c.rtxQ {
			c.sendSeg(s, true)
		}
		c.armRtx()
	})
}

func (c *TCPConn) sendSeg(seg clientSeg, withAck bool) {
	h := tcp.Header{
		SrcPort: c.lport, DstPort: c.rport,
		Seq: seg.seq, Ack: c.rcvNxt,
		Flags: seg.flags, Win: 0xffff,
	}
	if withAck {
		h.Flags |= tcp.FlagACK
	}
	m := newTx(tcp.HeaderLen + len(seg.data))
	buf := m.Bytes()
	h.Put(buf)
	copy(buf[tcp.HeaderLen:], seg.data)
	ck := inet.ChecksumPseudo(c.h.Addr, c.raddr, inet.ProtoTCP, buf)
	binary.BigEndian.PutUint16(buf[16:18], ck)
	c.h.sendIP(c.raddr, inet.ProtoTCP, m)
}

func (c *TCPConn) sendAck() {
	c.sendSeg(clientSeg{seq: c.sndNxt}, true)
}

// handleTCP dispatches an inbound segment to the right client connection.
func (h *Host) handleTCP(ih ip.Header, body []byte) {
	th, err := tcp.Parse(body)
	if err != nil {
		return
	}
	c, ok := h.tcpConns[th.DstPort]
	if !ok || c.raddr != ih.Src || c.rport != th.SrcPort {
		return
	}
	c.input(th, body[tcp.HeaderLen:])
}

func (c *TCPConn) input(h tcp.Header, payload []byte) {
	if h.Flags&tcp.FlagRST != 0 {
		c.state = 4
		if c.OnClose != nil {
			c.OnClose()
		}
		return
	}
	// ACK bookkeeping.
	if h.Flags&tcp.FlagACK != 0 && int32(h.Ack-c.sndUna) > 0 && int32(c.sndNxt-h.Ack) >= 0 {
		c.sndUna = h.Ack
		c.retries = 0
		keep := c.rtxQ[:0]
		for _, s := range c.rtxQ {
			end := s.seq + uint32(len(s.data))
			if s.flags&(tcp.FlagSYN|tcp.FlagFIN) != 0 {
				end++
			}
			if int32(h.Ack-end) < 0 {
				keep = append(keep, s)
			}
		}
		c.rtxQ = keep
		if c.rtxEv != nil {
			c.rtxEv.Cancel()
			c.rtxEv = nil
		}
		c.armRtx()
	}

	switch c.state {
	case 1: // syn-sent
		if h.Flags&tcp.FlagSYN != 0 && h.Flags&tcp.FlagACK != 0 {
			c.rcvNxt = h.Seq + 1
			c.state = 2
			c.sendAck()
			if c.OnConnect != nil {
				c.OnConnect()
			}
			c.pump()
		}
		return
	}

	if len(payload) > 0 {
		if h.Seq == c.rcvNxt {
			c.rcvNxt += uint32(len(payload))
			c.Received = append(c.Received, payload...)
			if c.OnData != nil {
				c.OnData(payload)
			}
		}
		c.sendAck()
	}
	if h.Flags&tcp.FlagFIN != 0 && h.Seq+uint32(len(payload)) == c.rcvNxt {
		c.rcvNxt++
		c.sendAck()
		if c.finSeq == 0 {
			// Server closed first (HTTP/1.0): close our side too.
			c.Close()
		}
		if c.state == 3 || c.finSeq != 0 {
			c.state = 4
		}
		if c.OnClose != nil {
			c.OnClose()
		}
	}
}
